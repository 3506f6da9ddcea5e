package compute

// Independent converts a plain distributed computation into the
// degenerate workflow with one segment per actor and no edges — the §IV
// special case. No binary uses it; the workflow tests do.
func Independent(d Distributed) Workflow {
	actors := make([]Segmented, 0, len(d.Actors))
	for _, a := range d.Actors {
		actors = append(actors, Segmented{Actor: a.Actor, Segments: []Computation{a}})
	}
	return Workflow{
		Name:     d.Name,
		Start:    d.Start,
		Deadline: d.Deadline,
		Actors:   actors,
	}
}
