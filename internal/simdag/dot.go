// GraphViz DOT workflow loader: the other interchange format SimDag
// reads. Nodes are compute tasks whose "size" attribute is the work in
// flops; an edge with a "size" attribute is a data transfer (a comm
// task is inserted between the endpoints), and an edge without one is
// a plain control dependency. The parser covers the DOT subset
// workflow generators emit — digraph header, node statements with
// attribute lists, edge chains (a -> b -> c), quoted identifiers,
// comments — without pulling in a graph library.

package simdag

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadDOT parses a DOT digraph and instantiates it: one compute task
// per node (flops from the node's size attribute, 0 when absent), a
// comm task per sized edge, a direct dependency per bare edge. Tasks
// are returned in declaration order, NotScheduled. A size that is not
// finite, or a dependency cycle, is an error.
func LoadDOT(s *Simulation, r io.Reader) ([]*Task, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	text, err := stripDOTComments(string(raw))
	if err != nil {
		return nil, err
	}
	open := strings.IndexByte(text, '{')
	closing := strings.LastIndexByte(text, '}')
	if open < 0 || closing < open || !strings.Contains(strings.ToLower(text[:open]), "digraph") {
		return nil, errors.New("simdag: bad DOT: no digraph body")
	}

	byName := make(map[string]*Task)
	seenXfer := make(map[[2]string]bool) // dedupe repeated sized edges
	var tasks []*Task
	node := func(name string) *Task {
		if t := byName[name]; t != nil {
			return t
		}
		t := s.NewTask(name, 0)
		byName[name] = t
		tasks = append(tasks, t)
		return t
	}

	for _, stmt := range splitDOTStatements(text[open+1 : closing]) {
		head, attrs, err := splitDOTAttrs(stmt)
		if err != nil {
			return nil, err
		}
		if head == "" {
			continue
		}
		switch lower := strings.ToLower(head); {
		case lower == "graph" || lower == "node" || lower == "edge":
			continue // default-attribute statements
		case strings.Contains(head, "->"):
			hops := strings.Split(head, "->")
			for i := range hops {
				hops[i] = unquoteDOT(strings.TrimSpace(hops[i]))
				if hops[i] == "" {
					return nil, fmt.Errorf("simdag: bad DOT edge %q", stmt)
				}
			}
			bytes := attrs["size"]
			for i := 0; i+1 < len(hops); i++ {
				src, dst := node(hops[i]), node(hops[i+1])
				if bytes > 0 {
					// A repeated sized edge is the same transfer declared
					// twice, not twice the data: first declaration wins.
					key := [2]string{hops[i], hops[i+1]}
					if seenXfer[key] {
						continue
					}
					seenXfer[key] = true
					c := s.NewCommTask(hops[i]+"->"+hops[i+1], bytes)
					tasks = append(tasks, c)
					if err := depTolerant(s, src, c); err != nil {
						return nil, err
					}
					if err := depTolerant(s, c, dst); err != nil {
						return nil, err
					}
				} else if err := depTolerant(s, src, dst); err != nil {
					return nil, err
				}
			}
		default:
			t := node(unquoteDOT(head))
			if flops, ok := attrs["size"]; ok {
				t.amount = flops
			}
		}
	}
	if err := checkLoaded(s, tasks, "DOT"); err != nil {
		return nil, err
	}
	return tasks, nil
}

// depTolerant adds a dependency, ignoring duplicates (DOT files often
// repeat edges).
func depTolerant(s *Simulation, before, after *Task) error {
	if err := s.AddDependency(before, after); err != nil && !errors.Is(err, ErrDuplicate) {
		return err
	}
	return nil
}

// stripDOTComments removes //, # line comments and /* */ blocks.
func stripDOTComments(text string) (string, error) {
	var b strings.Builder
	b.Grow(len(text))
	for i := 0; i < len(text); {
		switch {
		case text[i] == '"': // quoted strings may contain comment starters
			j := i + 1
			for j < len(text) && text[j] != '"' {
				if text[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(text) {
				return "", errors.New("simdag: bad DOT: unterminated string")
			}
			b.WriteString(text[i : j+1])
			i = j + 1
		case strings.HasPrefix(text[i:], "//") || text[i] == '#':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case strings.HasPrefix(text[i:], "/*"):
			end := strings.Index(text[i+2:], "*/")
			if end < 0 {
				return "", errors.New("simdag: bad DOT: unterminated comment")
			}
			i += 2 + end + 2
		default:
			b.WriteByte(text[i])
			i++
		}
	}
	return b.String(), nil
}

// splitDOTStatements splits a digraph body on ';' and newlines,
// keeping attribute lists (which may contain either) intact.
func splitDOTStatements(body string) []string {
	var out []string
	var cur strings.Builder
	depth := 0
	inStr := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case inStr:
			if c == '\\' && i+1 < len(body) {
				cur.WriteByte(c)
				i++
				c = body[i]
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case (c == ';' || c == '\n') && depth == 0:
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
			continue
		}
		cur.WriteByte(c)
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// splitDOTAttrs separates a statement's head from its [attr, ...]
// list, parsing numeric attribute values.
func splitDOTAttrs(stmt string) (head string, attrs map[string]float64, err error) {
	open := strings.IndexByte(stmt, '[')
	if open < 0 {
		return strings.TrimSpace(stmt), nil, nil
	}
	closing := strings.LastIndexByte(stmt, ']')
	if closing < open {
		return "", nil, fmt.Errorf("simdag: bad DOT attribute list in %q", stmt)
	}
	attrs = make(map[string]float64)
	for _, kv := range strings.FieldsFunc(stmt[open+1:closing], func(r rune) bool { return r == ',' }) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(kv[:eq]))
		val := unquoteDOT(strings.TrimSpace(kv[eq+1:]))
		if f, perr := strconv.ParseFloat(val, 64); perr == nil {
			attrs[key] = f
		}
	}
	return strings.TrimSpace(stmt[:open]), attrs, nil
}

// unquoteDOT strips surrounding double quotes.
func unquoteDOT(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
