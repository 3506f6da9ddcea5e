package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/resource"
	"repro/internal/workload"
)

// FuzzDecodeAdmitRequest holds the admit wire path to the decoder it
// replaced: for every input, DecodeAdmitRequest and json.Unmarshal +
// workload.ValidateJob both refuse, or both accept equal jobs (see
// assertDecodeMatchesOracle). The body is decoded from a buffer that is
// overwritten straight after, as a pooled request buffer is, so a job
// aliasing its body shows as a mismatch. A job that survives is then
// admitted to a ledger whose invariant must hold. The seeds cover each
// wire-compatibility case the hand decoder must get right.
func FuzzDecodeAdmitRequest(f *testing.F) {
	// A well-formed job as produced by the workload generator.
	jobs, err := workload.Generate(workload.Config{
		Seed: 3, Locations: []resource.Location{"l1", "l2"}, NumJobs: 1,
		ActorsMin: 1, ActorsMax: 2, StepsMin: 1, StepsMax: 3,
		SendProb: 0.5, EvalWeightMax: 2, SlackFactor: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	if seed, err := json.Marshal(jobs[0]); err == nil {
		f.Add(seed)
	}
	// A real admit_loaded body: every link key carries json.Marshal's
	// \u003e for '>'.
	f.Add(admitLoadedBodies(f, 1)[0])
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":0,"Deadline":9223372036854775807},"Arrival":0}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":0,"Deadline":8,"Actors":[
		{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1},"Amounts":{"cpu@l1":9223372036854775807}}]}
	]},"Arrival":0}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":0,"Deadline":8,"Actors":[
		{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1},"Amounts":{"cpu@l1":-1}}]}
	]},"Arrival":0}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":5,"Deadline":3},"Arrival":-9}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":0,"Deadline":8,"Actors":[
		{"Actor":"a","Steps":[{"Action":{"Op":1,"Actor":"a","Loc":"l1","Dest":"l1>l2>l3","Target":"b","Size":1},"Amounts":{"network@l1>l2>l3":5}}]}
	]},"Arrival":0}`))
	// Keys match case-insensitively, with Unicode folding: ſ is s.
	f.Add([]byte(`{"dist":{"NAME":"j","ſtart":0,"deadline":8,"aCtOrS":[
		{"actor":"a","STEPS":[{"action":{"op":2,"actor":"a","loc":"l1","size":1},"amounts":{"cpu@l1":1}}]}
	]},"arrival":0}`))
	// Unknown keys at every nesting, holding every kind of value.
	f.Add([]byte(`{"x":{"y":[1,{"z":null}]},"Dist":{"Name":"j","Deadline":8,"extra":[true,false,-1.5e3,"s"],"Actors":[
		{"Actor":"a","more":"s","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1,"w":{}},"Amounts":{"cpu@l1":1},"q":[]}]}
	]},"Arrival":0,"tail":0.25E-2}`))
	// null leaves a scalar or struct as it is and sets a slice or map to nil.
	f.Add([]byte(`{"Dist":{"Name":"j","Name":null,"Start":null,"Deadline":8,"Actors":[{"Actor":"a"}],"Actors":null},"Arrival":null}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[null,{"Actor":"a","Steps":[{"Action":null,"Amounts":{"cpu@l1":null}}]}]}}`))
	f.Add([]byte(`{"Dist":null,"Arrival":0}`))
	f.Add([]byte(`null`))
	// Empty arrays and objects are empty, not nil.
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1"},"Amounts":{}}]},{"Actor":"b","Steps":[]}]}}`))
	// A repeated key decodes into what the earlier one left: the last
	// scalar wins, structs and Amounts merge, elements decode in place.
	f.Add([]byte(`{"Dist":{"Name":"a","Deadline":8},"Dist":{"Name":"b"},"Arrival":1,"Arrival":2}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[
		{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1","Size":1},"Amounts":{"cpu@l1":1},"Amounts":{"cpu@l2":2,"cpu@l1":3}}]},
		{"Actor":"b","Steps":[{"Action":{"Op":2,"Actor":"b","Loc":"l2"},"Amounts":{"cpu@l2":1}}]}],
		"Actors":[{"Steps":[{"Action":{"Size":4}}]}],
		"Actors":[{},{"Actor":"c"}]}}`))
	// Escapes: json.Marshal's \u003e, the short forms, a surrogate pair,
	// lone and mismatched surrogates, and an escaped key and kind.
	f.Add([]byte(`{"Dist":{"Name":"j\"\\\/\b\f\n\r\t\ud83d\ude00\ud800x\udc00\ud800\u0041\ud800\n","Deadline":8,"Actors":[
		{"Actor":"a","Steps":[{"Action":{"Op":1,"Actor":"a","Target":"b","Loc":"l1","Dest":"l2","Size":1},"Amounts":{"network@l1\u003el2":4,"\u0063pu@l1":1}}]}
	]},"\u0041rrival":0}`))
	// Invalid UTF-8 becomes U+FFFD, in values and in keys.
	f.Add([]byte("{\"Dist\":{\"Name\":\"j\xff\xfe\xe2\x82\",\"Deadline\":8,\"Actors\":[{\"Actor\":\"\xc0\",\"Steps\":[{\"Amounts\":{\"cpu@\xed\xa0\x80\":1}}]}]}}"))
	// Integer fields refuse fractions, exponents, overflow and an op past
	// 255; -0 is a 0 for int64 but not for the op's uint8.
	f.Add([]byte(`{"Dist":{"Name":"j","Start":1.0,"Deadline":8}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":1e2,"Deadline":800}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":-9223372036854775808,"Deadline":9223372036854775808}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Start":-0,"Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":256,"Actor":"a","Loc":"l1"}}]}]}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":-0,"Actor":"a","Loc":"l1"}}]}]}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":255,"Actor":"a","Loc":"l1","Size":01}}]}]}}`))
	// Only space may follow the job.
	f.Add([]byte(" \t{\"Dist\":{\"Name\":\"j\",\"Deadline\":8}}\r\n "))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8}} x`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8}}{}`))
	// Values of the wrong type, and malformed text inside skipped values.
	f.Add([]byte(`{"Dist":{"Name":7,"Deadline":"8"}}`))
	f.Add([]byte(`{"Dist":[],"Arrival":true}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8},"x":[1,]}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8},"x":"\q"}`))
	// An empty Amounts key is the zero located type; a malformed one is
	// refused.
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1"},"Amounts":{"":1}}]}]}}`))
	f.Add([]byte(`{"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Amounts":{"cpu@":2}}]}]}}`))

	policy := &admission.Rota{}
	var buf []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := assertDecodeMatchesOracle(t, &buf, data)
		if err != nil {
			return
		}
		// Whatever decodes cleanly must also be admissible or rejectable
		// without panicking, and must leave the ledger invariant intact.
		l := NewLedger(Config{Theta: cpuTheta(2, 64, "l1", "l2")}, nil)
		if _, err := l.Admit(policy, job); err == nil {
			if err := l.Audit(); err != nil {
				t.Fatalf("invariant broken by %q: %v", data, err)
			}
		}
	})
}

// assertDecodeMatchesOracle decodes data through DecodeAdmitRequest and
// through the oracle it replaced, json.Unmarshal + workload.ValidateJob.
// Both must refuse, or both must accept equal jobs; the same holds one
// layer down for workload.UnmarshalJob against json.Unmarshal alone, and
// a job refused by validation carries the oracle's message. The hand
// decoders read a copy of data in *buf that is overwritten before the
// comparison.
func assertDecodeMatchesOracle(t *testing.T, buf *[]byte, data []byte) (workload.Job, error) {
	t.Helper()
	*buf = append((*buf)[:0], data...)
	raw, rawErr := workload.UnmarshalJob(*buf)
	got, err := DecodeAdmitRequest(*buf)
	for i := range *buf {
		(*buf)[i] = '#'
	}

	var want workload.Job
	wantRawErr := json.Unmarshal(data, &want)
	if (rawErr == nil) != (wantRawErr == nil) {
		t.Fatalf("UnmarshalJob(%q) error %v, json.Unmarshal error %v", data, rawErr, wantRawErr)
	}
	if rawErr == nil && !reflect.DeepEqual(raw, want) {
		t.Fatalf("UnmarshalJob(%q) =\n%#v\njson.Unmarshal =\n%#v", data, raw, want)
	}
	wantErr := wantRawErr
	if wantErr == nil {
		wantErr = workload.ValidateJob(want)
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("DecodeAdmitRequest(%q) error %v, oracle error %v", data, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeAdmitRequest(%q) =\n%#v\noracle =\n%#v", data, got, want)
	case wantRawErr == nil && wantErr != nil && err.Error() != "server: bad admit body: "+wantErr.Error():
		t.Fatalf("DecodeAdmitRequest(%q) refuses with %q, oracle with %q", data, err, wantErr)
	}
	return got, err
}

// FuzzDecodePrepareRequest throws arbitrary bytes at the federation wire
// path — decode, validate, and (when a prepare survives validation) a
// full prepare/commit/abort cycle — asserting none of it panics and the
// ledger invariant survives whatever a malicious peer sends.
func FuzzDecodePrepareRequest(f *testing.F) {
	f.Add([]byte(`{"key":"n1.2pc.1","name":"j1","demand":"2:cpu@l1:(0,10)","finish":10,"deadline":20,"lease_expiry":50}`))
	f.Add([]byte(`{"key":"k","name":"j","demand":"1:cpu@l1:(0,5),1:network@l1>l2:(2,4)","finish":5,"deadline":8,"lease_expiry":9}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"key":"k","name":"j","demand":"","finish":1,"deadline":1,"lease_expiry":1}`))
	f.Add([]byte(`{"key":"k","name":"j","demand":"9223372036854775807:cpu@l1:(0,9223372036854775807)","finish":3,"deadline":2,"lease_expiry":1}`))
	f.Add([]byte(`{"key":"k","name":"j","demand":"-1:cpu@l1:(0,3)","finish":3,"deadline":4,"lease_expiry":5}`))
	f.Add([]byte(`{"key":"k","name":"j","demand":"2:cpu@l9:(0,3)","finish":3,"deadline":4,"lease_expiry":5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, demand, err := DecodePrepareRequest(data)
		if err != nil {
			return
		}
		l := NewLedger(Config{Theta: cpuTheta(2, 64, "l1", "l2"), Owned: []resource.Location{"l1", "l2"}}, nil)
		if err := l.Prepare(req.Key, req.Name, demand, req.Finish, req.Deadline, req.Expiry); err == nil {
			if err := l.Audit(); err != nil {
				t.Fatalf("invariant broken by prepare %q: %v", data, err)
			}
			if err := l.Commit(req.Key); err == nil {
				if err := l.Abort(req.Key); err != nil {
					t.Fatalf("rollback of %q failed: %v", data, err)
				}
			}
			if err := l.Audit(); err != nil {
				t.Fatalf("invariant broken after cycle %q: %v", data, err)
			}
		}
	})
}

// FuzzDecodeFinishRequest fuzzes the commit/abort decoder: whatever
// decodes must be safe to commit (unknown) and abort (no-op) cold, and
// each location it names must be one a prepare's demand literal could
// name.
func FuzzDecodeFinishRequest(f *testing.F) {
	f.Add([]byte(`{"key":"n1.2pc.1"}`))
	f.Add([]byte(`{"key":"n1.2pc.1","locs":["l1","l2"]}`))
	f.Add([]byte(`{"key":"n1.2pc.1","locs":["l1>l2"]}`))
	f.Add([]byte(`{"key":"n1.2pc.1","locs":[""]}`))
	f.Add([]byte(`{"key":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeFinishRequest(data)
		if err != nil {
			return
		}
		for _, loc := range req.Locs {
			if lt, err := resource.ParseLocatedType("cpu@" + string(loc)); err != nil || lt.Loc != loc || lt.Dst != "" {
				t.Fatalf("decoded location %q is no prepare's location (%v)", loc, err)
			}
		}
		l := NewLedger(Config{Theta: cpuTheta(2, 64, "l1")}, nil)
		if err := l.Commit(req.Key); err == nil {
			t.Fatalf("cold commit of %q succeeded", req.Key)
		}
		if err := l.Abort(req.Key); err != nil {
			t.Fatalf("cold abort of %q failed: %v", req.Key, err)
		}
	})
}

// FuzzParseAcquireTheta fuzzes the acquire endpoint's resource-set
// literal parser (malformed terms, nested parens, huge rates).
func FuzzParseAcquireTheta(f *testing.F) {
	f.Add("2:cpu@l1:(0,10)")
	f.Add("2:cpu@l1:(0,10),1:network@l1>l2:(5,9)")
	f.Add("9223372036854775807:cpu@l1:(0,9223372036854775807)")
	f.Add("2:cpu@l1:(10,0)")
	f.Add(":::,,,(((")
	f.Add("-5:cpu@l1:(0,3)")
	f.Fuzz(func(t *testing.T, text string) {
		set, err := resource.ParseSet(text)
		if err != nil {
			return
		}
		// A parsed set must round-trip through its compact form.
		if _, err := resource.ParseSet(set.Compact()); err != nil {
			t.Fatalf("compact form of %q does not re-parse: %v", text, err)
		}
	})
}
