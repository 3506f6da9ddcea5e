package server

import (
	"encoding/json"
	"testing"

	"repro/internal/admission"
	"repro/internal/resource"
	"repro/internal/workload"
)

// FuzzDecodeAdmitRequest throws arbitrary bytes at the admit wire path —
// decode, validate, and (when a job survives validation) a full ledger
// admission — asserting none of it panics. Seeds cover the interesting
// malformed shapes: bad resource terms, overlapping intervals, huge
// rates, negative amounts.
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

	policy := &admission.Rota{}
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := DecodeAdmitRequest(data)
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
// decodes must be safe to commit (unknown) and abort (no-op) cold.
func FuzzDecodeFinishRequest(f *testing.F) {
	f.Add([]byte(`{"key":"n1.2pc.1"}`))
	f.Add([]byte(`{"key":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeFinishRequest(data)
		if err != nil {
			return
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
