package instr

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file parses the Paje subset that Trace emits, so a written
// trace can be loaded back and rendered (cmd/ganttgen -paje). It is a
// consumer-side proof that the format round-trips, not a general Paje
// parser: it assumes the alias scheme and quoting NewTrace produces.

// Container is one container seen in a trace, in creation order.
type Container struct {
	Name   string
	Type   string // container type name (e.g. HOST, PROCESS)
	Parent string // parent container name; "" for roots
}

// StateInterval is one closed span of a state on a container:
// [Start, End) during which the state held Value. Push/Pop pairs and
// Set transitions both reduce to intervals; spans still open at
// end-of-trace are closed at the trace's last timestamp and flagged
// Open.
type StateInterval struct {
	Container string
	Type      string // state type name (e.g. PSTATE, TSTATE)
	Value     string
	Start     float64
	End       float64
	Open      bool // never closed by the trace: End is the trace's end
}

// LinkSpan is one matched StartLink/EndLink pair.
type LinkSpan struct {
	Type       string
	Src, Dst   string // container names
	Value, Key string
	Start, End float64
}

// TraceData is the decoded content of one Paje trace.
type TraceData struct {
	Containers []Container
	Intervals  []StateInterval
	Links      []LinkSpan
	EndTime    float64
}

// openState is the open part of one (container, state type) pair: its
// current SetState value and its pushed stack.
type openState struct {
	cont, typ string // container and state-type names
	stack     []stackedVal
	setVal    string // current SetState value ("" = none)
	setAt     float64
}

type stackedVal struct {
	val string
	at  float64
}

type openLink struct {
	src, val string
	at       float64
}

// pair keys the reader's indexes by two names: (container, state type)
// for states, (link type, key) for links.
type pair struct{ a, b string }

// ReadTrace decodes a trace produced by Trace from r. Every event costs
// O(1) map work, plus one step per state a destroyed container holds.
func ReadTrace(r io.Reader) (*TraceData, error) {
	td := &TraceData{}
	types := map[string]string{}        // type alias -> name
	conts := map[string]string{}        // container alias -> name
	stateOf := map[pair]*openState{}    // (container, state type) names -> state
	var states []*openState             // creation order: the end-of-trace close order
	byCont := map[string][]*openState{} // container name -> its states, creation order
	links := map[pair][]openLink{}      // (link type, key) -> open links, oldest first
	var args []string
	get := func(i int) string {
		if i < len(args) {
			return args[i]
		}
		return ""
	}
	stateFor := func(contAlias, typeAlias string) *openState {
		k := pair{conts[contAlias], types[typeAlias]}
		if st, ok := stateOf[k]; ok {
			return st
		}
		st := &openState{cont: k.a, typ: k.b}
		stateOf[k] = st
		states = append(states, st)
		byCont[k.a] = append(byCont[k.a], st)
		return st
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitPaje(line)
		if err != nil {
			return nil, fmt.Errorf("paje line %d: %w", lineNo, err)
		}
		if len(fields) == 0 {
			continue
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("paje line %d: bad event id %q", lineNo, fields[0])
		}
		args = fields[1:]
		// Timed events carry the timestamp first.
		var t float64
		if id >= pajeCreateContainer {
			if len(args) == 0 {
				return nil, fmt.Errorf("paje line %d: missing timestamp", lineNo)
			}
			t, err = strconv.ParseFloat(args[0], 64)
			if err != nil {
				return nil, fmt.Errorf("paje line %d: bad timestamp %q", lineNo, args[0])
			}
			args = args[1:]
			if t > td.EndTime {
				td.EndTime = t
			}
		}
		switch id {
		case pajeDefineContainerType, pajeDefineStateType, pajeDefineVariableType, pajeDefineEntityValue:
			types[get(0)] = get(2)
		case pajeDefineLinkType:
			types[get(0)] = get(4)
		case pajeCreateContainer:
			alias, ctype, parent, name := get(0), get(1), get(2), get(3)
			conts[alias] = name
			td.Containers = append(td.Containers, Container{
				Name:   name,
				Type:   types[ctype],
				Parent: conts[parent],
			})
		case pajeDestroyContainer:
			for _, st := range byCont[conts[get(1)]] {
				closeState(td, st, t)
			}
		case pajeSetState:
			st := stateFor(get(1), get(0))
			if st.setVal != "" {
				td.Intervals = append(td.Intervals, StateInterval{
					Container: st.cont, Type: st.typ, Value: st.setVal,
					Start: st.setAt, End: t,
				})
			}
			st.setVal, st.setAt = get(2), t
		case pajePushState:
			st := stateFor(get(1), get(0))
			st.stack = append(st.stack, stackedVal{val: get(2), at: t})
		case pajePopState:
			st := stateFor(get(1), get(0))
			if n := len(st.stack); n > 0 {
				top := st.stack[n-1]
				st.stack = st.stack[:n-1]
				td.Intervals = append(td.Intervals, StateInterval{
					Container: st.cont, Type: st.typ, Value: top.val,
					Start: top.at, End: t,
				})
			}
		case pajeSetVariable:
			// Variables are not needed for rendering; skip.
		case pajeStartLink:
			k := pair{types[get(0)], get(4)}
			links[k] = append(links[k], openLink{src: conts[get(2)], val: get(3), at: t})
		case pajeEndLink:
			k := pair{types[get(0)], get(4)}
			q := links[k]
			if len(q) == 0 {
				break
			}
			td.Links = append(td.Links, LinkSpan{
				Type: k.a, Src: q[0].src, Dst: conts[get(2)],
				Value: q[0].val, Key: k.b,
				Start: q[0].at, End: t,
			})
			links[k] = q[1:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	closed := len(td.Intervals)
	for _, st := range states {
		closeState(td, st, td.EndTime)
	}
	for i := closed; i < len(td.Intervals); i++ {
		td.Intervals[i].Open = true
	}
	return td, nil
}

// closeState flushes a state's open set-value and stacked values as
// intervals ending at t.
func closeState(td *TraceData, st *openState, t float64) {
	if st.setVal != "" {
		td.Intervals = append(td.Intervals, StateInterval{
			Container: st.cont, Type: st.typ, Value: st.setVal,
			Start: st.setAt, End: t,
		})
		st.setVal = ""
	}
	for i := len(st.stack) - 1; i >= 0; i-- {
		td.Intervals = append(td.Intervals, StateInterval{
			Container: st.cont, Type: st.typ, Value: st.stack[i].val,
			Start: st.stack[i].at, End: t,
		})
	}
	st.stack = st.stack[:0]
}

// splitPaje splits an event line into fields: whitespace-separated
// tokens, with Go-quoted strings (as AppendQuote emits) kept as one
// field and unescaped.
func splitPaje(line string) ([]string, error) {
	var fields []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quote")
			}
			s, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted field %q: %w", line[i:j+1], err)
			}
			fields = append(fields, s)
			i = j + 1
		} else {
			j := i
			for j < len(line) && line[j] != ' ' {
				j++
			}
			fields = append(fields, line[i:j])
			i = j
		}
	}
	return fields, nil
}
