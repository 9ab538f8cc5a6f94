package trace

import (
	"fmt"

	"mpcp/internal/task"
)

// jsonEvent and jsonExec are the wire form of the JSONL stream written by
// StreamSink: a stable contract for external tooling (plotting Gantt
// charts, diffing runs). The mirror structs carry the field tags so
// internal renames never break the format. Sem and prio are always
// emitted, because semaphore ID 0 and priority 0 are meaningful values.
type jsonEvent struct {
	Time int    `json:"t"`
	Kind string `json:"kind"`
	Task int    `json:"task"`
	Job  int    `json:"job"`
	Proc int    `json:"proc"`
	Sem  int    `json:"sem"`
	Prio int    `json:"prio"`
}

type jsonExec struct {
	Time  int  `json:"t"`
	Proc  int  `json:"proc"`
	Task  int  `json:"task"`
	Job   int  `json:"job"`
	InCS  bool `json:"inCS,omitempty"`
	InGCS bool `json:"inGCS,omitempty"`
}

// kindValues inverts EventKind.String over the defined kinds.
var kindValues = func() map[string]EventKind {
	m := make(map[string]EventKind, len(kindNames))
	for k, n := range kindNames {
		if n != "" {
			m[n] = EventKind(k)
		}
	}
	return m
}()

// toJSONEvent converts an Event to its wire form.
func toJSONEvent(e Event) jsonEvent {
	return jsonEvent{
		Time: e.Time, Kind: e.Kind.String(), Task: int(e.Task),
		Job: e.Job, Proc: int(e.Proc), Sem: int(e.Sem), Prio: e.Prio,
	}
}

// fromJSONEvent converts a wire event back, rejecting unknown kinds.
func fromJSONEvent(je jsonEvent) (Event, error) {
	kind, ok := kindValues[je.Kind]
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", je.Kind)
	}
	return Event{
		Time: je.Time, Kind: kind, Task: task.ID(je.Task), Job: je.Job,
		Proc: task.ProcID(je.Proc), Sem: task.SemID(je.Sem), Prio: je.Prio,
	}, nil
}

func toJSONExec(x Exec) jsonExec {
	return jsonExec{
		Time: x.Time, Proc: int(x.Proc), Task: int(x.Task), Job: x.Job,
		InCS: x.InCS, InGCS: x.InGCS,
	}
}

func fromJSONExec(jx jsonExec) Exec {
	return Exec{
		Time: jx.Time, Proc: task.ProcID(jx.Proc), Task: task.ID(jx.Task),
		Job: jx.Job, InCS: jx.InCS, InGCS: jx.InGCS,
	}
}
