// Quickstart: the smallest end-to-end Mirage pipeline.
//
// A vendor identifies the environmental resources of an application on its
// reference machine, clusters a five-machine fleet by environment, and
// stages a MySQL 4->5 upgrade: representatives test first, a failure is
// reported with a reproducible image, the vendor ships a corrected
// upgrade, and the whole fleet converges.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/scenario"
)

func file(path string, t machine.FileType, data, version string) *machine.File {
	return &machine.File{Path: path, Type: t, Data: []byte(data), Version: version}
}

// buildMachine assembles a MySQL 4.1.22 machine; kind selects the
// environment variant.
func buildMachine(name, kind string) *machine.Machine {
	m := machine.New(name)
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(file("/lib/libc.so", machine.TypeSharedLib, "libc 2.4", "2.4"))
	m.WriteFile(file(apps.MySQLExec, machine.TypeExecutable, "mysqld 4.1.22", "4.1.22"))
	m.WriteFile(file(apps.LibMySQLPath, machine.TypeSharedLib, "libmysqlclient 4.1", "4.1"))
	m.WriteFile(file("/etc/mysql/my.cnf", machine.TypeConfig, "[mysqld]\nport = 3306\n", ""))
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"},
		[]string{apps.MySQLExec, apps.LibMySQLPath})
	if kind == "php4" {
		// PHP 4 compiled with MySQL support: the upgrade's library bump
		// will break it (the paper's broken-dependency example).
		m.WriteFile(file(apps.PHPExec, machine.TypeExecutable, "php 4.4.6", "4.4.6"))
		m.InstallPackage(machine.PackageRef{Name: "php", Version: "4.4.6"}, []string{apps.PHPExec})
	}
	return m
}

func main() {
	// 1. The vendor: reference machine, parser registry, repository, URR.
	vendor := core.NewVendor(buildMachine("reference", "plain"))
	vendor.Registry.RegisterPath("/etc/mysql/my.cnf", parser.ConfigParser{})
	vendor.IdentifyResources(apps.MySQL{}, [][]string{{"SELECT 1"}, {"SELECT 2"}})
	fmt.Printf("identified %d environmental resources for mysql\n", len(vendor.Resources["mysql"]))

	// 2. The fleet: three plain machines, two with PHP 4.
	fleet := core.NewFleet(vendor,
		buildMachine("alpha", "plain"),
		buildMachine("bravo", "plain"),
		buildMachine("charlie", "plain"),
		buildMachine("delta", "php4"),
		buildMachine("echo", "php4"),
	)
	for _, u := range fleet.Machines {
		u.IdentifyLocal(apps.MySQL{}, [][]string{{"SELECT 1"}})
		u.RecordBaseline(apps.MySQL{}, []string{"SELECT 1"})
		if _, ok := u.M.Package("php"); ok {
			u.IdentifyLocal(apps.PHP{}, [][]string{nil})
			u.RecordBaseline(apps.PHP{}, nil)
		}
	}

	// 3. Cluster by environment.
	ctx := context.Background()
	clustering, err := vendor.ClusterFleet(ctx, fleet, "mysql", cluster.Config{Diameter: 3}, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range clustering.Clusters {
		fmt.Printf("cluster %d (distance %d): %v\n", c.ID, c.Distance, c.Machines)
	}

	// 4. The upgrade, and the vendor's debugging loop.
	upgrade := scenario.MySQLUpgrade()
	vendor.Repo.Add(upgrade.Pkg)

	fix := func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
		fmt.Printf("vendor: %d failure report(s); first: %v from %s\n",
			len(failures), failures[0].FailedApps, failures[0].Machine)
		fixed := scenario.MySQLFixedUpgrade("mysql-5.0.22b")
		vendor.Repo.Add(fixed.Pkg)
		return fixed, true
	}

	// 5. Staged deployment, as a rollout on the orchestrator: Start
	// returns a handle — the rollout is observable (Status, Events),
	// pausable and abortable while it runs; Wait gives the outcome. The
	// one-call form of the same thing is vendor.StageDeployment(ctx, ...).
	// Over real TCP the same rollout ships upgrade bytes as binary chunk
	// frames, and agents started with -peer-listen fetch misses from
	// already-gated peers before falling back to the vendor.
	orch := orchestrator.New("")
	h, err := vendor.StartDeployment(ctx, orch, deploy.PolicyBalanced, upgrade, clustering, fix)
	if err != nil {
		log.Fatal(err)
	}
	for ev := range h.Events(ctx) {
		fmt.Printf("  event %-12s stage=%d node=%s\n", ev.Type, ev.Stage, ev.Node)
	}
	out, err := h.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s deployed: %d/%d machines integrated, overhead %d, %d debug round(s)\n",
		h.ID(), out.Integrated(), len(out.Nodes), out.Overhead, out.Rounds)

	// 6. Everything still works in production.
	for _, u := range fleet.Machines {
		status := (apps.MySQL{}).Run(u.M, []string{"SELECT 1"}).ExitStatus()
		ref, _ := u.M.Package("mysql")
		fmt.Printf("  %-8s mysql %s: %s\n", u.Name(), ref.Version, status)
	}
}
