package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Sink receives trace records as the simulator produces them. The
// buffered Log is one implementation (everything retained in memory);
// StreamSink is another (each record encoded and written immediately, so
// long-horizon runs need no trace memory at all). Sinks are not required
// to be safe for concurrent use: the simulator is single-threaded.
//
// Close flushes and releases whatever the sink holds. The simulator never
// closes a sink it was given — the caller that opened it closes it.
type Sink interface {
	Event(Event) error
	Exec(Exec) error
	Close() error
}

// Event implements Sink by appending to the log.
func (l *Log) Event(e Event) error { l.Add(e); return nil }

// Exec implements Sink by appending to the log.
func (l *Log) Exec(x Exec) error { l.AddExec(x); return nil }

// Close implements Sink. It is a no-op: the log keeps its records.
func (l *Log) Close() error { return nil }

// StreamFormatVersion identifies the JSONL stream format written by
// StreamSink. Bump it when a record shape changes incompatibly.
const StreamFormatVersion = 1

// streamRecord is one JSONL line: a header (first line), an event or an
// execution tick. Exactly one group of fields is populated.
type streamRecord struct {
	Format  string `json:"format,omitempty"`
	Version int    `json:"version,omitempty"`

	Event *jsonEvent `json:"event,omitempty"`
	Exec  *jsonExec  `json:"exec,omitempty"`
}

const streamFormatName = "mpcp-trace-stream"

// StreamSink writes the trace as a JSON Lines stream, the one serialized
// trace format: a header line naming the format version, then one object
// per event or execution tick, in emission order. Unlike the buffered Log
// it holds O(1) memory, which is what makes million-tick horizons
// tractable. ReadStream replays a stream into a Log equal to one that
// recorded the same run directly.
type StreamSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewStreamSink starts a stream on w, writing the header line
// immediately. The caller remains responsible for closing w if it is a
// file; StreamSink.Close only flushes buffered records.
func NewStreamSink(w io.Writer) *StreamSink {
	bw := bufio.NewWriter(w)
	s := &StreamSink{bw: bw, enc: json.NewEncoder(bw)}
	s.write(streamRecord{Format: streamFormatName, Version: StreamFormatVersion})
	return s
}

// write encodes one record, latching the first error: after a failed
// write every later call reports the same error rather than silently
// producing a trace with holes.
func (s *StreamSink) write(rec streamRecord) error {
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(rec); err != nil {
		s.err = fmt.Errorf("trace: stream: %w", err)
	}
	return s.err
}

// Event implements Sink.
func (s *StreamSink) Event(e Event) error {
	je := toJSONEvent(e)
	return s.write(streamRecord{Event: &je})
}

// Exec implements Sink.
func (s *StreamSink) Exec(x Exec) error {
	jx := toJSONExec(x)
	return s.write(streamRecord{Exec: &jx})
}

// Close flushes the stream. It does not close the underlying writer.
func (s *StreamSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if err := s.bw.Flush(); err != nil {
		s.err = fmt.Errorf("trace: stream: %w", err)
	}
	return s.err
}

// ReadStream replays a JSONL stream written by StreamSink into a buffered
// Log, preserving record order. It accepts a missing header (a raw record
// stream) but rejects an unknown format version and an empty input,
// which holds neither a header nor a record.
func ReadStream(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	l := New()
	first := true
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				if first {
					return nil, fmt.Errorf("trace: stream: empty input")
				}
				return l, nil
			}
			return nil, fmt.Errorf("trace: stream: %w", err)
		}
		if rec.Format != "" {
			if !first {
				return nil, fmt.Errorf("trace: stream: header after first record")
			}
			if rec.Format != streamFormatName || rec.Version != StreamFormatVersion {
				return nil, fmt.Errorf("trace: stream: unsupported format %s/%d", rec.Format, rec.Version)
			}
			first = false
			continue
		}
		first = false
		switch {
		case rec.Event != nil:
			e, err := fromJSONEvent(*rec.Event)
			if err != nil {
				return nil, err
			}
			l.Add(e)
		case rec.Exec != nil:
			l.AddExec(fromJSONExec(*rec.Exec))
		default:
			return nil, fmt.Errorf("trace: stream: record with neither event nor exec")
		}
	}
}

// multiSink fans records out to several sinks.
type multiSink struct{ sinks []Sink }

// MultiSink returns a sink duplicating every record to each argument, in
// order — e.g. a buffered Log for invariant checks plus a StreamSink for
// the on-disk artifact. The first error encountered is returned; Close
// closes every sink and reports the first failure.
func MultiSink(sinks ...Sink) Sink {
	return &multiSink{sinks: sinks}
}

func (m *multiSink) Event(e Event) error {
	for _, s := range m.sinks {
		if err := s.Event(e); err != nil {
			return err
		}
	}
	return nil
}

func (m *multiSink) Exec(x Exec) error {
	for _, s := range m.sinks {
		if err := s.Exec(x); err != nil {
			return err
		}
	}
	return nil
}

func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
