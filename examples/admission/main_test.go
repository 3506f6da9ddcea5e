package main

import (
	"bytes"
	"os"
	"testing"
)

// The program's report is pinned byte for byte: README presents it as
// the way into the paper, and it prints resource sets in type order.
// After a deliberate change, regenerate the golden with
//
//	go run ./examples/admission > examples/admission/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
