package workload

import (
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	jobs, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteJSON(jobs, &sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back), len(jobs))
	}
	for i := range jobs {
		a, b := jobs[i], back[i]
		if a.Arrival != b.Arrival || a.Dist.Name != b.Dist.Name ||
			a.Dist.Start != b.Dist.Start || a.Dist.Deadline != b.Dist.Deadline {
			t.Fatalf("job %d header differs: %+v vs %+v", i, a, b)
		}
		if len(a.Dist.Actors) != len(b.Dist.Actors) {
			t.Fatalf("job %d actors differ", i)
		}
		for k := range a.Dist.Actors {
			if len(a.Dist.Actors[k].Steps) != len(b.Dist.Actors[k].Steps) {
				t.Fatalf("job %d actor %d steps differ", i, k)
			}
		}
		if a.Dist.TotalAmounts().Total() != b.Dist.TotalAmounts().Total() {
			t.Fatalf("job %d amounts differ", i)
		}
	}
}

func TestReadJSONValidation(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "zzz"},
		{"nameless", `[{"Dist":{"Name":"","Start":0,"Deadline":5},"Arrival":0}]`},
		{"empty window", `[{"Dist":{"Name":"j","Start":5,"Deadline":5},"Arrival":0}]`},
		{"deadline before release", `[{"Dist":{"Name":"j","Start":7,"Deadline":3},"Arrival":0}]`},
		{"arrival past deadline", `[{"Dist":{"Name":"j","Start":0,"Deadline":5},"Arrival":9}]`},
		{"negative arrival", `[{"Dist":{"Name":"j","Start":0,"Deadline":5},"Arrival":-1}]`},
		{
			"negative rate",
			`[{"Dist":{"Name":"j","Start":0,"Deadline":5,"Actors":[
				{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1},"Amounts":{"cpu@l1":-8000}}]}
			]},"Arrival":0}]`,
		},
		{
			"invalid action",
			`[{"Dist":{"Name":"j","Start":0,"Deadline":5,"Actors":[
				{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":""},"Amounts":{}}]}
			]},"Arrival":0}]`,
		},
		{
			"foreign step",
			`[{"Dist":{"Name":"j","Start":0,"Deadline":5,"Actors":[
				{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"zz","Loc":"l1","Size":1},"Amounts":{}}]}
			]},"Arrival":0}]`,
		},
		{
			"duplicate actor",
			`[{"Dist":{"Name":"j","Start":0,"Deadline":5,"Actors":[
				{"Actor":"a"},{"Actor":"a"}
			]},"Arrival":0}]`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tc.in)); err == nil {
				t.Errorf("accepted %s", tc.in)
			}
		})
	}
	// Empty list is fine.
	jobs, err := ReadJSON(strings.NewReader("[]"))
	if err != nil || len(jobs) != 0 {
		t.Errorf("empty list: %v, %v", jobs, err)
	}
}

func TestReadJSONErrorsAreDescriptive(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`[{"Dist":{"Name":"j","Start":7,"Deadline":3},"Arrival":0}]`, "deadline 3 at or before its release 7"},
		{`[{"Dist":{"Name":"j","Start":0,"Deadline":5},"Arrival":-1}]`, "negative arrival"},
		{
			`[{"Dist":{"Name":"j","Start":0,"Deadline":5,"Actors":[
				{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1},"Amounts":{"cpu@l1":-1}}]}
			]},"Arrival":0}]`,
			"negative rate",
		},
	}
	for _, tc := range cases {
		_, err := ReadJSON(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("accepted %s", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not mention %q", err, tc.want)
		}
	}
}
