package main

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// Every input the benchmark hands the program is drawn from one seeded
// generator per run: release payloads, cluster assignment, churn.

// payload returns n seeded random bytes. Random bytes share no chunk with
// anything else, so a fresh release misses every cache.
func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// chunker cuts payloads the way the vendor's chunk store does.
var chunker = fingerprint.NewChunker(0, 0, 0)

// chunkedPayload draws seeded random payloads of n bytes until one cuts
// into lo to hi chunks. Random bytes cut into a chunk count that varies
// by a third from draw to draw, and manifests, frames and per-chunk work
// grow with it; pinning it keeps what the seed varies to the bytes.
func chunkedPayload(rng *rand.Rand, n, lo, hi int) []byte {
	for {
		b := payload(rng, n)
		if c := len(chunker.Split(b)); c >= lo && c <= hi {
			return b
		}
	}
}

// simRelease is fleet-10k's k-th release: one 64 KiB executable of 15
// chunks, big enough to chunk and small enough that transfer never
// dominates.
func simRelease(rng *rand.Rand, k int) *pkgmgr.Upgrade {
	v := fmt.Sprintf("2.%d", k)
	return &pkgmgr.Upgrade{
		ID: "bench-app-" + v,
		Pkg: &pkgmgr.Package{Name: "bench-app", Version: v, Files: []*machine.File{
			{Path: "/usr/bin/bench-app", Type: machine.TypeExecutable, Data: chunkedPayload(rng, 64<<10, 15, 15), Version: v},
		}},
		Replaces: "1.0",
	}
}

// swarmRelease is swarm-100's k-th release: a 512 KiB mysqld of 114 to
// 118 chunks plus a 16 KiB library of 4, 528 KiB in all, that the agents
// validate and install.
func swarmRelease(rng *rand.Rand, k int) *pkgmgr.Upgrade {
	v := fmt.Sprintf("5.0.%d", 22+k)
	return &pkgmgr.Upgrade{
		ID: "mysql-" + v,
		Pkg: &pkgmgr.Package{Name: "mysql", Version: v, Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: chunkedPayload(rng, 512<<10, 114, 118), Version: v},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: chunkedPayload(rng, 16<<10, 4, 4), Version: "5.0"},
		}},
		Replaces: "4.1.22",
	}
}

// swarmMachine is one swarm-100 member before the upgrade: mysql 4.1.22
// with its 64 KiB binary installed, which the agent's chunk cache seeds
// from.
func swarmMachine(name string, binary []byte) *machine.Machine {
	m := machine.New(name)
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: binary, Version: "4.1.22"})
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
	return m
}
