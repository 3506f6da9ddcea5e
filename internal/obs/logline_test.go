package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceKVLine is the kv renderer Log used before it appended into a
// pooled buffer: every key and value through fmt.Sprintf("%v"), values
// quoted only for an empty string, a space, tab, newline, quote or
// equals sign. The appender must match it byte for byte on every line
// whose keys and values hold no control character.
func referenceKVLine(ts time.Time, event, node string, kv ...any) string {
	quote := func(s string) string {
		if s == "" || strings.ContainsAny(s, " \t\n\"=") {
			return fmt.Sprintf("%q", s)
		}
		return s
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(ts.Format(time.RFC3339Nano))
	b.WriteString(" event=")
	b.WriteString(quote(event))
	if node != "" {
		b.WriteString(" node=")
		b.WriteString(quote(node))
	}
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprintf("%v", kv[i]))
		b.WriteByte('=')
		b.WriteString(quote(fmt.Sprintf("%v", kv[i+1])))
	}
	b.WriteByte('\n')
	return b.String()
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }

// kvLine renders one line through the Observer, as a daemon would.
func kvLine(ts time.Time, event, node string, kv ...any) string {
	var buf bytes.Buffer
	New(Options{Log: &buf, Node: node, NowFn: func() time.Time { return ts }}).Log(event, kv...)
	return buf.String()
}

// TestLogLineBytes holds the appender to the old renderer on every kind
// of value the daemon logs and a few it does not.
func TestLogLineBytes(t *testing.T) {
	ts := time.Date(2026, 10, 17, 16, 37, 26, 123456789, time.UTC)
	var nilErr error
	cases := [][]any{
		{"job", "j1"},
		{"job", ""},
		{"reason", "no free slot", "detail", `say "hi"`, "kv", "a=b", "tab", "a\tb", "nl", "a\nb"},
		{"deadline", 64, "finish", int64(-9000000000), "zero", 0},
		{"admit", true, "late", false},
		{"trace", nil, "error", nilErr},
		{"error", errors.New("server: demand exceeds free availability")},
		{"wait", 1500 * time.Microsecond, "who", stringer{"a b"}, "empty", stringer{}},
		{"ratio", 0.25, "big", 1e21, "f32", float32(1.5)},
		{"list", []string{"l1", "l2"}, "ints", []int{1, 2}},
		{"epoch", uint64(1 << 63), "small", int32(-7), "byte", uint8(200)},
		{42, "numeric key", "odd"},
		{"unicode", "⟨cpu,l1⟩", "nbsp", "a\u00a0b"},
	}
	for _, node := range []string{"", "n1", "rack 1"} {
		for _, kv := range cases {
			got := kvLine(ts, "admit.decision", node, kv...)
			want := referenceKVLine(ts, "admit.decision", node, kv...)
			if got != want {
				t.Errorf("kv %v node %q:\n got %q\nwant %q", kv, node, got, want)
			}
		}
	}
}

// TestLogQuotesControlCharacters is the log-line injection fix: a key
// or value holding a control character or invalid UTF-8 is written
// quoted, so a job name cannot move a terminal's cursor, forge a line
// or carry raw bytes into the flight recorder.
func TestLogQuotesControlCharacters(t *testing.T) {
	ts := fixedNow()
	for _, c := range []struct{ key, value, want string }{
		{"job", "a\rb", `job="a\rb"`},
		{"job", "x\x1b[2J", `job="x\x1b[2J"`},
		{"job", "del\x7f", `job="del\x7f"`},
		{"job", "bad\xff", `job="bad\xff"`},
		{"job", "c1\u009b2J", `job="c1\u009b2J"`},
		{"j\rb", "v", `"j\rb"=v`},
	} {
		line := kvLine(ts, "admit.decision", "", c.key, c.value)
		body := strings.TrimSuffix(line, "\n")
		if !strings.HasSuffix(body, " "+c.want) {
			t.Errorf("%q=%q logged as %q, want it to end %q", c.key, c.value, line, c.want)
		}
		if strings.Count(line, "\n") != 1 || !utf8.ValidString(line) || hasControl(body) {
			t.Errorf("%q=%q logged raw: %q", c.key, c.value, line)
		}
	}
}

// FuzzLogKV: for any string key and value and any int, the appender
// writes what the old renderer wrote, except that a key or value with a
// control character is quoted — and then the line is one line of valid
// UTF-8 with no control character in it.
func FuzzLogKV(f *testing.F) {
	f.Add("job", "j1", int64(64), true)
	f.Add("reason", "no free slot", int64(-1), false)
	f.Add("job", "", int64(0), true)
	f.Add("job", "a\rb", int64(7), false)
	f.Add("k=v", `"q"`, int64(1<<40), true)
	f.Add("job", "bad\xff\u009b", int64(-1<<63), false)
	ts := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	f.Fuzz(func(t *testing.T, key, value string, n int64, flag bool) {
		kv := []any{key, value, "n", n, "int", int(n), "flag", flag, "err", errors.New(value), "who", stringer{value}}
		got := kvLine(ts, "e", "n1", kv...)
		if !hasControl(key) && !hasControl(value) {
			if want := referenceKVLine(ts, "e", "n1", kv...); got != want {
				t.Fatalf("got  %q\nwant %q", got, want)
			}
			return
		}
		body := strings.TrimSuffix(got, "\n")
		if strings.Contains(body, "\n") || !utf8.ValidString(body) || hasControl(body) {
			t.Fatalf("control character logged raw: %q", got)
		}
	})
}

// admitDecision logs the line the daemon writes for every verdict.
func admitDecision(o *Observer, trace, job string) {
	o.Log("admit.decision",
		"trace", trace,
		"job", job,
		"admit", true,
		"reason", "",
		"deadline", int64(64),
		"decision_us", int64(12))
}

// TestLogAllocs pins an admit.decision line's cost: the two strings
// boxed into Log's arguments, and nothing for the line itself.
func TestLogAllocs(t *testing.T) {
	o := New(Options{Log: io.Discard, Node: "n1"})
	trace, job := MintID(), strings.Repeat("j", 12)
	if n := testing.AllocsPerRun(1000, func() { admitDecision(o, trace, job) }); n > 2 {
		t.Fatalf("admit.decision line allocates %.1f times, want ≤ 2", n)
	}
}

func BenchmarkObsLog(b *testing.B) {
	o := New(Options{Log: io.Discard, Node: "n1"})
	trace, job := MintID(), strings.Repeat("j", 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		admitDecision(o, trace, job)
	}
}
