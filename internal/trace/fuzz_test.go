package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"mpcp/internal/trace"
)

// FuzzReadStream checks the JSONL stream reader against arbitrary input:
// it must never panic, and any stream it accepts must survive a re-emit
// round trip — replaying the decoded log through a fresh StreamSink and
// reading it back yields an equal log.
func FuzzReadStream(f *testing.F) {
	header := `{"format":"mpcp-trace-stream","version":1}` + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header +
		`{"event":{"t":0,"kind":"release","task":1,"job":0,"proc":0,"prio":3}}` + "\n" +
		`{"event":{"t":1,"kind":"lock","task":1,"job":0,"proc":0,"sem":2,"prio":3}}` + "\n" +
		`{"exec":{"t":1,"proc":0,"task":1,"job":0,"inCS":true}}` + "\n" +
		`{"event":{"t":2,"kind":"unlock","task":1,"job":0,"proc":0,"sem":2,"prio":3}}` + "\n" +
		`{"event":{"t":3,"kind":"finish","task":1,"job":0,"proc":0}}` + "\n"))
	f.Add([]byte(`{"exec":{"t":5,"proc":1,"task":2,"job":1,"inGCS":true}}` + "\n"))
	f.Add([]byte(`{"format":"mpcp-trace-stream","version":99}`))
	f.Add([]byte(`{"event":{"kind":"nonesuch"}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := trace.ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		l2, err := trace.ReadStream(streamLog(t, l))
		if err != nil {
			t.Fatalf("re-emitted stream rejected: %v", err)
		}
		if !reflect.DeepEqual(l, l2) {
			t.Fatal("stream round trip changed the log")
		}
	})
}
