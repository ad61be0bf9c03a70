package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// jsonTrace is the JSON wire form of a Trace. The JSON codec is meant
// for interoperability and debugging; the binary codec is the compact
// production format.
type jsonTrace struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Threads []jsonThread      `json:"threads"`
	Objects []jsonObject      `json:"objects"`
	Events  []jsonEvent       `json:"events"`
}

type jsonThread struct {
	ID      ThreadID `json:"id"`
	Name    string   `json:"name"`
	Creator ThreadID `json:"creator"`
}

type jsonObject struct {
	ID      ObjID  `json:"id"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Parties int    `json:"parties,omitempty"`
}

type jsonEvent struct {
	T      Time     `json:"t"`
	Seq    uint64   `json:"seq"`
	Thread ThreadID `json:"thread"`
	Kind   string   `json:"kind"`
	Obj    ObjID    `json:"obj"`
	Arg    int64    `json:"arg,omitempty"`
}

var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind)
	for k := EvThreadStart; k < evKindMax; k++ {
		m[k.String()] = k
	}
	return m
}()

var objKindByName = map[string]ObjKind{
	"mutex":   ObjMutex,
	"barrier": ObjBarrier,
	"cond":    ObjCond,
	"chan":    ObjChan,
}

// WriteJSON encodes tr as indented JSON.
func WriteJSON(w io.Writer, tr *Trace) error {
	jt := jsonTrace{
		Meta:    tr.Meta,
		Threads: make([]jsonThread, len(tr.Threads)),
		Objects: make([]jsonObject, len(tr.Objects)),
		Events:  make([]jsonEvent, len(tr.Events)),
	}
	for i, th := range tr.Threads {
		jt.Threads[i] = jsonThread{ID: th.ID, Name: th.Name, Creator: th.Creator}
	}
	for i, o := range tr.Objects {
		jt.Objects[i] = jsonObject{ID: o.ID, Kind: o.Kind.String(), Name: o.Name, Parties: o.Parties}
	}
	for i, e := range tr.Events {
		jt.Events[i] = jsonEvent{T: e.T, Seq: e.Seq, Thread: e.Thread, Kind: e.Kind.String(), Obj: e.Obj, Arg: e.Arg}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// ReadJSON decodes a trace written by WriteJSON. It accepts exactly
// the traces the binary encoding can carry, so a trace decodes the
// same from either: thread and object IDs are their positions, object
// parties fit the binary range, and events name a registered thread
// and an object ID of at least NoObj, in strict (T, Seq) order.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	tr := &Trace{
		Meta:    jt.Meta,
		Threads: make([]ThreadInfo, len(jt.Threads)),
		Objects: make([]ObjectInfo, len(jt.Objects)),
		Events:  make([]Event, len(jt.Events)),
	}
	if tr.Meta == nil {
		tr.Meta = make(map[string]string)
	}
	for i, th := range jt.Threads {
		if th.ID != ThreadID(i) {
			return nil, fmt.Errorf("trace: thread %d has id %d", i, th.ID)
		}
		tr.Threads[i] = ThreadInfo{ID: th.ID, Name: th.Name, Creator: th.Creator}
	}
	for i, o := range jt.Objects {
		kind, ok := objKindByName[o.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: object %d: unknown kind %q", i, o.Kind)
		}
		if o.ID != ObjID(i) {
			return nil, fmt.Errorf("trace: object %d has id %d", i, o.ID)
		}
		if o.Parties < 0 || o.Parties > math.MaxInt32 {
			return nil, fmt.Errorf("trace: object %d: parties %d out of range", i, o.Parties)
		}
		tr.Objects[i] = ObjectInfo{ID: o.ID, Kind: kind, Name: o.Name, Parties: o.Parties}
	}
	var prev Event
	for i, je := range jt.Events {
		kind, ok := kindByName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: event %d: unknown kind %q", i, je.Kind)
		}
		e := Event{T: je.T, Seq: je.Seq, Thread: je.Thread, Kind: kind, Obj: je.Obj, Arg: je.Arg}
		if e.Thread < 0 || int(e.Thread) >= len(tr.Threads) {
			return nil, fmt.Errorf("trace: event %d: thread %d out of range", i, e.Thread)
		}
		if e.Obj < NoObj {
			return nil, fmt.Errorf("trace: event %d: obj %d out of range", i, e.Obj)
		}
		if i > 0 && (e.T < prev.T || (e.T == prev.T && e.Seq <= prev.Seq)) {
			return nil, fmt.Errorf("trace: event %d out of order", i)
		}
		tr.Events[i] = e
		prev = e
	}
	return tr, nil
}
