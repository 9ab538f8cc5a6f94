package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Sink consumes completed spans. Implementations must tolerate being
// called from the single goroutine holding the tracer's lock; the
// tracer serializes emission, so sinks need no locking of their own.
type Sink interface {
	Span(Span) error
	Close() error
}

// Log buffers spans in memory — the test and analysis sink.
type Log struct {
	Spans []Span
}

// Span appends the span to the buffer.
func (l *Log) Span(s Span) error {
	l.Spans = append(l.Spans, s)
	return nil
}

// Close is a no-op for a buffered log.
func (l *Log) Close() error { return nil }

// streamFormat identifies the JSONL span stream in its header record.
const streamFormat = "mpcp-span-stream"

// streamHeader is the first line of a span stream.
type streamHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// streamRecord is one subsequent line.
type streamRecord struct {
	Span *Span `json:"span,omitempty"`
}

// StreamSink writes spans as JSON Lines: a header record
// {"format":"mpcp-span-stream","version":1} followed by one
// {"span":{...}} object per span — the same shape as the simulator's
// trace streams.
type StreamSink struct {
	w       *bufio.Writer
	c       io.Closer
	enc     *json.Encoder
	err     error
	started bool
}

// NewStreamSink wraps w in a span stream. If w is an io.Closer, Close
// closes it after flushing.
func NewStreamSink(w io.Writer) *StreamSink {
	bw := bufio.NewWriter(w)
	s := &StreamSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Span writes one span record, emitting the header first if needed.
func (s *StreamSink) Span(sp Span) error {
	if s.err != nil {
		return s.err
	}
	if !s.started {
		s.started = true
		if err := s.enc.Encode(streamHeader{Format: streamFormat, Version: 1}); err != nil {
			s.err = err
			return err
		}
	}
	if err := s.enc.Encode(streamRecord{Span: &sp}); err != nil {
		s.err = err
	}
	return s.err
}

// Close flushes the stream and closes the underlying writer if it is
// closable. A stream with no spans still gets its header so readers
// can tell "empty stream" from "not a span stream".
func (s *StreamSink) Close() error {
	if s.err == nil && !s.started {
		s.started = true
		s.err = s.enc.Encode(streamHeader{Format: streamFormat, Version: 1})
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ReadStream parses a span stream produced by StreamSink. The header
// is validated when present; a stream that starts directly with span
// records is accepted for hand-built fixtures.
func ReadStream(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	first := true
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return spans, nil
			}
			return nil, fmt.Errorf("span stream: %w", err)
		}
		if first {
			first = false
			var hdr streamHeader
			if err := json.Unmarshal(raw, &hdr); err == nil && hdr.Format != "" {
				if hdr.Format != streamFormat {
					return nil, fmt.Errorf("span stream: format %q, want %q", hdr.Format, streamFormat)
				}
				if hdr.Version != 1 {
					return nil, fmt.Errorf("span stream: unsupported version %d", hdr.Version)
				}
				continue
			}
		}
		var rec streamRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("span stream: %w", err)
		}
		if rec.Span != nil {
			spans = append(spans, *rec.Span)
		}
	}
}

// MultiSink fans each span out to every sink; the first error latches
// and Close closes all sinks, returning the first failure.
type MultiSink struct {
	Sinks []Sink
}

// Span forwards to every sink, stopping at the first error.
func (m *MultiSink) Span(s Span) error {
	for _, sink := range m.Sinks {
		if err := sink.Span(s); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink and returns the first error.
func (m *MultiSink) Close() error {
	var first error
	for _, sink := range m.Sinks {
		if err := sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// canonicalLine renders one span in the canonical (timestamp-free)
// JSON form used by Canonical.
func canonicalLine(s Span) string {
	b, err := json.Marshal(canonicalSpan{
		Trace:  s.Trace,
		ID:     s.ID,
		Parent: s.Parent,
		Name:   s.Name,
		Key:    s.Key,
		Actor:  s.Actor,
		Attrs:  s.Attrs,
	})
	if err != nil {
		// Span holds only strings and slices of string pairs; Marshal
		// cannot fail on it.
		panic(err)
	}
	return string(b)
}

// canonicalSpan is Span minus the timestamp fields.
type canonicalSpan struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Actor  string `json:"actor,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
}
