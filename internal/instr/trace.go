package instr

import (
	"io"
	"strconv"
)

// Trace writes a Paje trace: a fixed %EventDef header followed by one
// numeric event line per emission, each stamped with SIMULATED time.
// Aliases for types and containers come from deterministic counters
// ("t0", "t1", ... / "c0", "c1", ...), string arguments are quoted
// with Go escaping, and floats use shortest-round-trip formatting —
// so the byte stream is a pure function of the emission sequence.
//
// Each emission formats its line straight into one output buffer,
// written out in chunks, so steady-state tracing allocates nothing.
// A Trace holds all its own state: traces in different goroutines are
// independent, while one Trace, like the rest of the kernel, is
// simulation-context-only and unlocked. All methods are safe on a nil
// receiver, so layers can call hooks unconditionally.
type Trace struct {
	w     io.Writer
	out   []byte
	err   error
	nType int
	nCont int
}

// Paje event IDs, in header order.
const (
	pajeDefineContainerType = 0
	pajeDefineStateType     = 1
	pajeDefineVariableType  = 2
	pajeDefineLinkType      = 3
	pajeDefineEntityValue   = 4
	pajeCreateContainer     = 5
	pajeDestroyContainer    = 6
	pajeSetState            = 7
	pajePushState           = 8
	pajePopState            = 9
	pajeSetVariable         = 10
	pajeStartLink           = 11
	pajeEndLink             = 12
)

const pajeHeader = `%EventDef PajeDefineContainerType 0
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineStateType 1
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineVariableType 2
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineLinkType 3
%  Alias string
%  Type string
%  StartContainerType string
%  EndContainerType string
%  Name string
%EndEventDef
%EventDef PajeDefineEntityValue 4
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeCreateContainer 5
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajeDestroyContainer 6
%  Time date
%  Type string
%  Name string
%EndEventDef
%EventDef PajeSetState 7
%  Time date
%  Type string
%  Container string
%  Value string
%EndEventDef
%EventDef PajePushState 8
%  Time date
%  Type string
%  Container string
%  Value string
%EndEventDef
%EventDef PajePopState 9
%  Time date
%  Type string
%  Container string
%EndEventDef
%EventDef PajeSetVariable 10
%  Time date
%  Type string
%  Container string
%  Value double
%EndEventDef
%EventDef PajeStartLink 11
%  Time date
%  Type string
%  Container string
%  SourceContainer string
%  Value string
%  Key string
%EndEventDef
%EventDef PajeEndLink 12
%  Time date
%  Type string
%  Container string
%  DestContainer string
%  Value string
%  Key string
%EndEventDef
`

// outChunk is the output-buffer size past which the buffer is written
// out.
const outChunk = 1 << 15

// NewTrace starts a Paje trace on w, writing the event-definition
// header immediately.
func NewTrace(w io.Writer) *Trace {
	tr := &Trace{w: w, out: make([]byte, 0, outChunk+1024)}
	tr.out = append(tr.out, pajeHeader...)
	return tr
}

// typeAlias mints the next deterministic alias for a type-like
// definition (container/state/variable/link types and entity values).
func (tr *Trace) typeAlias() string {
	a := "t" + strconv.Itoa(tr.nType)
	tr.nType++
	return a
}

// contAlias mints the next deterministic container alias.
func (tr *Trace) contAlias() string {
	a := "c" + strconv.Itoa(tr.nCont)
	tr.nCont++
	return a
}

// def emits an untimed definition line.
func (tr *Trace) def(id int, args ...string) {
	tr.out = strconv.AppendInt(tr.out, int64(id), 10)
	tr.quote(args)
	tr.end()
}

// timed emits a timed event line with string args only.
func (tr *Trace) timed(id int, t float64, args ...string) {
	tr.stamp(id, t)
	tr.quote(args)
	tr.end()
}

// stamp starts a timed event line: the event id and the timestamp.
func (tr *Trace) stamp(id int, t float64) {
	tr.out = strconv.AppendInt(tr.out, int64(id), 10)
	tr.out = append(tr.out, ' ')
	tr.out = appendFloat(tr.out, t)
}

// quote appends each arg as a Go-quoted field.
func (tr *Trace) quote(args []string) {
	for _, a := range args {
		tr.out = append(tr.out, ' ')
		tr.out = strconv.AppendQuote(tr.out, a)
	}
}

// end closes the line and writes the buffer out once it passes
// outChunk.
func (tr *Trace) end() {
	tr.out = append(tr.out, '\n')
	if len(tr.out) >= outChunk {
		tr.writeOut()
	}
}

func (tr *Trace) writeOut() {
	if len(tr.out) == 0 {
		return
	}
	if tr.err == nil && tr.w != nil {
		_, tr.err = tr.w.Write(tr.out)
	}
	tr.out = tr.out[:0]
}

// DefineContainerType declares a container type under parent (use
// "0" for the root type) and returns its alias.
func (tr *Trace) DefineContainerType(parent, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.typeAlias()
	tr.def(pajeDefineContainerType, a, parent, name)
	return a
}

// DefineStateType declares a state type on container type ctype.
func (tr *Trace) DefineStateType(ctype, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.typeAlias()
	tr.def(pajeDefineStateType, a, ctype, name)
	return a
}

// DefineVariableType declares a variable type on container type
// ctype.
func (tr *Trace) DefineVariableType(ctype, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.typeAlias()
	tr.def(pajeDefineVariableType, a, ctype, name)
	return a
}

// DefineLinkType declares a link type rooted at parent, connecting
// containers of srcType to containers of dstType.
func (tr *Trace) DefineLinkType(parent, srcType, dstType, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.typeAlias()
	tr.def(pajeDefineLinkType, a, parent, srcType, dstType, name)
	return a
}

// DefineEntityValue declares a named value for state type stype.
func (tr *Trace) DefineEntityValue(stype, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.typeAlias()
	tr.def(pajeDefineEntityValue, a, stype, name)
	return a
}

// CreateContainer creates a container of type ctype under parent
// (alias or "0" for the root) and returns its alias.
func (tr *Trace) CreateContainer(t float64, ctype, parent, name string) string {
	if tr == nil {
		return ""
	}
	a := tr.contAlias()
	tr.timed(pajeCreateContainer, t, a, ctype, parent, name)
	return a
}

// DestroyContainer destroys the container with the given alias.
func (tr *Trace) DestroyContainer(t float64, ctype, alias string) {
	if tr == nil {
		return
	}
	tr.timed(pajeDestroyContainer, t, ctype, alias)
}

// SetState sets the current value of a state (replacing any previous
// value).
func (tr *Trace) SetState(t float64, stype, container, value string) {
	if tr == nil {
		return
	}
	tr.timed(pajeSetState, t, stype, container, value)
}

// PushState pushes a value onto a state's stack.
func (tr *Trace) PushState(t float64, stype, container, value string) {
	if tr == nil {
		return
	}
	tr.timed(pajePushState, t, stype, container, value)
}

// PopState pops the top value off a state's stack.
func (tr *Trace) PopState(t float64, stype, container string) {
	if tr == nil {
		return
	}
	tr.timed(pajePopState, t, stype, container)
}

// SetVariable sets a numeric variable on a container.
func (tr *Trace) SetVariable(t float64, vtype, container string, v float64) {
	if tr == nil {
		return
	}
	tr.stamp(pajeSetVariable, t)
	tr.quote([]string{vtype, container})
	tr.out = append(tr.out, ' ')
	tr.out = appendFloat(tr.out, v)
	tr.end()
}

// StartLink starts an arrow of type ltype within container, leaving
// srcContainer; key pairs it with the matching EndLink.
func (tr *Trace) StartLink(t float64, ltype, container, srcContainer, value, key string) {
	if tr == nil {
		return
	}
	tr.timed(pajeStartLink, t, ltype, container, srcContainer, value, key)
}

// EndLink ends the arrow with the matching key at dstContainer.
func (tr *Trace) EndLink(t float64, ltype, container, dstContainer, value, key string) {
	if tr == nil {
		return
	}
	tr.timed(pajeEndLink, t, ltype, container, dstContainer, value, key)
}

// Flush writes every buffered byte to the underlying writer.
func (tr *Trace) Flush() error {
	if tr == nil {
		return nil
	}
	tr.writeOut()
	return tr.err
}

// Close flushes the trace. The underlying writer is not closed — the
// caller owns it.
func (tr *Trace) Close() error { return tr.Flush() }
