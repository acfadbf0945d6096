package transport

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/resource"
)

// Tests for the concurrent fleet-profiling path: fan-out determinism,
// error attribution, and the wire acknowledgment fix.

func mysqlVendorItems(t *testing.T) ([]string, RegistryConfig, *resource.Set) {
	t.Helper()
	refs := []string{"/lib/libc.so", apps.MySQLExec, apps.LibMySQLPath}
	regCfg := MirageRegistryConfig()
	reg, err := BuildRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	items := parser.NewFingerprinter(reg).Fingerprint(userMachine("vendor-ref", false), refs)
	return refs, regCfg, items
}

func TestFingerprintAllDeterministicAcrossParallelism(t *testing.T) {
	names := []string{"fp-a", "fp-b", "fp-c", "fp-d", "fp-e", "fp-f"}
	refs, regCfg, vendorItems := mysqlVendorItems(t)

	var want []string
	var wantKeys []profile.Key
	for _, par := range []int{1, 3, 16} {
		s, _ := startFleet(t,
			userMachine(names[0], false),
			userMachine(names[1], true),
			userMachine(names[2], false),
			userMachine(names[3], true),
			userMachine(names[4], false),
			userMachine(names[5], true),
		)
		s.ProfileParallelism = par
		ms, err := s.CollectProfiles(context.Background(), "mysql", refs, regCfg, vendorItems)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var got []string
		var gotKeys []profile.Key
		for _, m := range ms {
			got = append(got, m.Name)
			gotKeys = append(gotKeys, m.Key())
		}
		if want == nil {
			want, wantKeys = got, gotKeys
			if strings.Join(got, ",") != strings.Join(names, ",") {
				t.Fatalf("collection order %v, want sorted agent names %v", got, names)
			}
		} else {
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("parallelism %d: order %v != %v", par, got, want)
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("parallelism %d: profile %s differs", par, got[i])
				}
			}
		}
		s.Close()
	}
}

func TestFingerprintAllNamesFailingAgent(t *testing.T) {
	s, _ := startFleet(t,
		userMachine("healthy-1", false),
		userMachine("unlucky", false),
		userMachine("healthy-2", false),
	)
	if ac, ok := s.registry.Get("unlucky"); ok {
		ac.conn.Close()
	}
	time.Sleep(20 * time.Millisecond)

	refs, regCfg, vendorItems := mysqlVendorItems(t)
	_, err := s.FingerprintAll(context.Background(), "mysql", refs, regCfg, vendorItems)
	if err == nil {
		t.Fatal("fingerprinting a dead agent succeeded")
	}
	if !strings.Contains(err.Error(), "unlucky") {
		t.Fatalf("error does not name the failing agent: %v", err)
	}
}

func TestUnacknowledgedReplyRejected(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A half-agent that registers and then answers every request with a
	// bare frame: no Err, no OK. Before OK lost omitempty, such a reply
	// was indistinguishable from a successful empty response.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fc := newFrameConn(bufio.NewReader(conn), bw)
	if err := fc.WriteFrame(&Frame{Op: OpRegister, Register: &RegisterReq{Machine: "shrug"}}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.WaitForAgents(1, time.Second); got != 1 {
		t.Fatalf("agents = %d", got)
	}
	go func() {
		for {
			var req Frame
			if err := fc.ReadFrame(&req); err != nil {
				return
			}
			if err := fc.WriteFrame(&Frame{ID: 1}); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()

	_, err = s.Record(context.Background(), "shrug", "mysql", nil)
	if err == nil {
		t.Fatal("unacknowledged reply accepted")
	}
	if !strings.Contains(err.Error(), "unacknowledged") || !strings.Contains(err.Error(), "shrug") {
		t.Fatalf("err = %v", err)
	}
}
