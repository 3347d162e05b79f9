package gras

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

// pinDigest is the digest of TestPinSimSchedule's event log: every
// message taken (agent, event, type, payload, From, Reply.Peer) and
// every error, each stamped with the Float64bits of its virtual time.
const pinDigest = "fdda4b2359e3e732b901558ec13cf4c469c4fe04ae312837de9f7100f6e59687"

// pinPlatform puts one server host behind four client hosts, each on a
// private link of its own speed, so arrivals interleave across clients.
func pinPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := platform.New()
	if err := p.AddHost(&platform.Host{Name: "srv", Power: 1e9}); err != nil {
		t.Fatal(err)
	}
	bw := []float64{1e6, 5e6, 2e7, 1e8}
	lat := []float64{0.01, 0.002, 0.005, 0.001}
	for i := range bw {
		h := fmt.Sprintf("h%d", i)
		if err := p.AddHost(&platform.Host{Name: h, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: "l" + h, Bandwidth: bw[i], Latency: lat[i]}
		if err := p.AddRoute(h, "srv", []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// pinLog folds one event into the digest and keeps it readable for a
// failure report.
type pinLog struct {
	h     hash.Hash
	lines []string
}

func (l *pinLog) add(n Node, event string, m *Msg, err error) {
	var line string
	switch {
	case err != nil:
		line = fmt.Sprintf("%s|%s|%s", n.Name(), event, err.Error())
	default:
		payload := fmt.Sprint(m.Payload)
		if b, ok := m.Payload.([]uint8); ok {
			payload = fmt.Sprintf("%d bytes", len(b))
		}
		line = fmt.Sprintf("%s|%s|%s|%s|%s|%s", n.Name(), event, m.Type, payload, m.From, m.Reply.Peer)
	}
	line += fmt.Sprintf("|%016x", math.Float64bits(n.Clock()))
	l.lines = append(l.lines, line)
	fmt.Fprintln(l.h, line)
}

func pinDeclare(n Node) {
	n.Registry().Declare("evt", int32(0))
	n.Registry().Declare("blob", []uint8{})
	n.Registry().Declare("hello", "")
	n.Registry().Declare("stray", uint8(0))
	n.Registry().Declare("ack", int32(0))
}

// TestPinSimSchedule holds the simulated transport's receive path to
// the bit: a typed Recv taking messages past other types, a Recv
// timeout while unrelated messages arrive, Handle dispatching held and
// new messages in arrival order, replies on m.Reply, and the
// no-callback error, across four clients on links of different speed.
func TestPinSimSchedule(t *testing.T) {
	w := NewWorld(pinPlatform(t), exact())
	log := &pinLog{h: sha256.New()}
	err := w.Launch("server", "srv", func(n Node) error {
		pinDeclare(n)
		reply := func(n Node, m *Msg) error {
			log.add(n, "cb", m, nil)
			v := int32(0)
			switch p := m.Payload.(type) {
			case int32:
				v = 10 * p
			case []uint8:
				v = int32(len(p))
			}
			return n.Send(m.Reply, "ack", v)
		}
		n.RegisterCB("evt", reply)
		n.RegisterCB("blob", reply)
		if err := n.Listen(7000); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			m, err := n.Recv("hello", 0)
			if err != nil {
				return err
			}
			log.add(n, "recv", m, nil)
		}
		_, err := n.Recv("never", 0.05)
		log.add(n, "recv", nil, err)
		for {
			err := n.Handle(5)
			if err == nil {
				continue
			}
			log.add(n, "handle", nil, err)
			if errors.Is(err, ErrTimeout) {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		i := i
		err := w.Launch(fmt.Sprintf("client%d", i), fmt.Sprintf("h%d", i), func(n Node) error {
			pinDeclare(n)
			if err := n.Sleep(0.001 * float64(i+1)); err != nil {
				return err
			}
			s, err := n.Client("srv", 7000)
			if err != nil {
				return err
			}
			if err := n.Send(s, "evt", int32(i)); err != nil {
				return err
			}
			if err := n.Send(s, "blob", make([]uint8, 20000*(4-i))); err != nil {
				return err
			}
			if i%2 == 0 {
				if err := n.Send(s, "hello", fmt.Sprintf("hi from %d", i)); err != nil {
					return err
				}
			}
			if i == 3 {
				if err := n.Send(s, "stray", uint8(7)); err != nil {
					return err
				}
			}
			// A late event, landing while the server waits for "never".
			if err := n.Sleep(0.12 - n.Clock()); err != nil {
				return err
			}
			if err := n.Send(s, "evt", int32(10+i)); err != nil {
				return err
			}
			for k := 0; k < 3; k++ {
				m, err := n.Recv("ack", 10)
				if err != nil {
					return err
				}
				log.add(n, "recv", m, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, a := range []string{"server", "client0", "client1", "client2", "client3"} {
		if err := w.NodeError(a); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
	joined := strings.Join(log.lines, "\n")
	for _, want := range []string{`gras: no callback for message "stray"`, "server|recv|gras: timed out"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log lacks %q", want)
		}
	}
	if got := fmt.Sprintf("%x", log.h.Sum(nil)); got != pinDigest {
		t.Errorf("digest %s, want %s\n%s", got, pinDigest, joined)
	}
}
