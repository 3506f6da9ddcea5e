package workload

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/compute"
)

// TestUnmarshalJobNamesEveryField keeps the decoder's field lists in step
// with the structs encoding/json walks: a field added to one of them, or
// renamed by a json tag, must be taught to the decoder too.
func TestUnmarshalJobNamesEveryField(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(Job{}), jobFields},
		{reflect.TypeOf(compute.Distributed{}), distFields},
		{reflect.TypeOf(compute.Computation{}), actorFields},
		{reflect.TypeOf(compute.Step{}), stepFields},
		{reflect.TypeOf(compute.Action{}), actionFields},
	} {
		var names []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			if f.IsExported() {
				names = append(names, f.Name)
			}
			if tag := f.Tag.Get("json"); tag != "" {
				t.Errorf("%v.%s has json tag %q, which the decoder does not read", c.typ, f.Name, tag)
			}
		}
		if !slices.Equal(names, c.fields) {
			t.Errorf("%v has fields %v, the decoder reads %v", c.typ, names, c.fields)
		}
	}
}
