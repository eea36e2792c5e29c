package dist

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/ntf"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// Every row-update policy runs on the fleet unchanged: ncp and sampled ALS
// with an exact polish, on both kernels, reproduce the local run of the
// same policy and kernel bit for bit at every worker count.
func TestPoliciesOnFleetMatchLocal(t *testing.T) {
	x := plantedTensor()
	base := solveOpts()
	policies := []struct {
		name string
		make func(o cpals.Options) (cpals.Policy, error)
	}{
		{"ncp", func(o cpals.Options) (cpals.Policy, error) {
			return ntf.NewPolicy(x, ntf.Options{Options: o, InnerIters: 2})
		}},
		{"rals-polish", func(o cpals.Options) (cpals.Policy, error) {
			return rals.NewPolicy(x, rals.Options{Options: o, SampleFraction: 0.3, ResampleEvery: 2, ExactFinishIters: 2})
		}},
	}
	for _, pc := range policies {
		for _, csf := range []bool{false, true} {
			// The policies refuse CSFKernel in their own options; the
			// kernel is the backend's, so it is set only on the options
			// the engine runs with.
			o := base
			o.CSFKernel = csf
			p, err := pc.make(base)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cpals.Run(x, o, cpals.NewLocal(x, csf, o.Workers()), p)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				c, err := StartInProcess(n)
				if err != nil {
					t.Fatal(err)
				}
				p, err := pc.make(base)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := Run(x, o, p, c.Config())
				c.Close()
				if err != nil {
					t.Fatalf("%s csf=%v %d workers: %v", pc.name, csf, n, err)
				}
				sameBits(t, pc.name, want, got)
				if stats.Degraded || stats.Tasks == 0 {
					t.Fatalf("%s csf=%v %d workers: MTTKRPs did not run on the fleet: %+v", pc.name, csf, n, stats)
				}
			}
		}
	}
}

// Killing every worker while a mid-run MTTKRP stage is in flight moves the
// rest of the solve to the coordinator, bitwise equal to the fault-free
// run.
func TestFleetCollapseMidStageFinishesLocal(t *testing.T) {
	x := plantedTensor()
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			// ncp refuses the kernel switch in its own options; the
			// engine runs with it.
			ncp := func() cpals.Policy {
				p, err := ntf.NewPolicy(x, ntf.Options{Options: solveOpts()})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			o := solveOpts()
			o.CSFKernel = k.csf
			want, err := cpals.Run(x, o, cpals.NewLocal(x, k.csf, o.Workers()), ncp())
			if err != nil {
				t.Fatal(err)
			}
			c, err := StartInProcess(3)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg := c.Config()
			cfg.DisableRejoin = true
			var once sync.Once
			// Stage 5 is iteration 1's mode-1 MTTKRP (one stage per mode).
			cfg.AfterDispatch = func(stage uint64) {
				if stage == 5 {
					once.Do(func() {
						for _, kill := range c.Kills {
							kill()
						}
					})
				}
			}
			got, stats, err := Run(x, o, ncp(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Degraded || stats.WorkersAlive != 0 {
				t.Fatalf("want the fleet lost and the run degraded, got %+v", stats)
			}
			sameBits(t, "collapse mid-stage", want, got)
		})
	}
}

// A worker of another protocol version is refused at Hello with a typed
// *VersionError, whether it acknowledges with its own version or refuses
// the coordinator's with the text earlier workers send.
func TestOtherProtocolVersionRefused(t *testing.T) {
	replies := map[string]func(w *bufio.Writer) error{
		"ack": func(w *bufio.Writer) error {
			return WriteFrame(w, MsgHelloAck, EncodeHello(&Hello{Version: 3, Order: 3, Rank: 4, Dims: []int{60, 50, 40}}))
		},
		"refusal": func(w *bufio.Writer) error {
			return WriteFrame(w, MsgErr, EncodeErr(&RemoteError{Msg: "protocol version mismatch: coordinator 4, worker 3"}))
		},
	}
	for name, reply := range replies {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, _, err := ReadFrame(bufio.NewReader(conn)); err != nil {
				return
			}
			w := bufio.NewWriter(conn)
			if reply(w) == nil {
				w.Flush()
			}
		}()
		_, err = NewSession(plantedTensor(), 4, false, Config{Addrs: []string{ln.Addr().String()}})
		ln.Close()
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Coordinator != ProtocolVersion || ve.Worker != 3 {
			t.Fatalf("%s: want *VersionError{%d, 3}, got %v", name, ProtocolVersion, err)
		}
	}
}

// A shard whose indices fall outside the session's dimensions is refused
// on arrival as a protocol error, before any kernel reads it — whether
// the worker keeps it as entries or builds its CSF tree.
func TestWorkerRejectsOutOfRangeShard(t *testing.T) {
	for _, flags := range []uint8{0, HelloUseCSF} {
		coord, conn := net.Pipe()
		go NewWorker().handle(conn)
		r, w := bufio.NewReader(coord), bufio.NewWriter(coord)
		send := func(mt MsgType, payload []byte) {
			if err := WriteFrame(w, mt, payload); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		send(MsgHello, EncodeHello(&Hello{Version: ProtocolVersion, Flags: flags, Order: 3, Rank: 2, Dims: []int{10, 5, 4}, Workers: 1}))
		if mt, _, err := ReadFrame(r); err != nil || mt != MsgHelloAck {
			t.Fatalf("flags %d: handshake: %v %v", flags, mt, err)
		}
		sh := &Shard{Mode: 0, Order: 3, RowLo: 0, RowHi: 2}
		var e tensor.Entry
		e.Idx[0], e.Idx[1], e.Idx[2], e.Val = 1, 5, 0, 1 // mode 1 has 5 rows
		sh.Entries = append(sh.Entries, e)
		send(MsgShard, EncodeShard(sh))
		mt, payload, err := ReadFrame(r)
		if err != nil || mt != MsgErr {
			t.Fatalf("flags %d: want an error frame for the bad shard, got %v %v", flags, mt, err)
		}
		if re, err := DecodeErr(payload); err != nil || !strings.Contains(re.Msg, "out of range") {
			t.Fatalf("flags %d: error frame %+v, %v", flags, re, err)
		}
		coord.Close()
	}
}
