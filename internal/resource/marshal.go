package resource

// Text marshaling uses the compact scenario-file syntax, which makes the
// resource types directly embeddable in JSON documents and traces:
// a Term renders as "5:cpu@l1:(0,3)", a Set as a comma-separated term
// list, and a LocatedType as "cpu@l1" / "network@l1>l2".

// MarshalText implements encoding.TextMarshaler.
func (lt LocatedType) MarshalText() ([]byte, error) {
	if lt.Zero() {
		return nil, nil
	}
	return []byte(lt.compact()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (lt *LocatedType) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*lt = LocatedType{}
		return nil
	}
	parsed, err := ParseLocatedType(string(text))
	if err != nil {
		return err
	}
	*lt = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (t Term) MarshalText() ([]byte, error) {
	if t.Null() {
		return []byte("0"), nil
	}
	return []byte(t.Compact()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *Term) UnmarshalText(text []byte) error {
	if string(text) == "0" {
		*t = Term{}
		return nil
	}
	parsed, err := ParseTerm(string(text))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (s Set) MarshalText() ([]byte, error) {
	return []byte(s.Compact()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Set) UnmarshalText(text []byte) error {
	parsed, err := ParseSet(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}
