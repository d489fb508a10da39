package main

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/sim"
)

// shardState is one shard's final placement and the table it admits by.
type shardState struct {
	placement *cloud.Placement
	table     *queuing.MappingTable
}

// checkServing verifies a serving run's end state: no PM of any shard
// breaks Eq. (17) under its shard's table, no VM is placed on two shards,
// placed − departed equals the live VMs, and the live set equals what the
// clients believe is live.
func checkServing(shards []shardState, st placesvc.Stats, live []bool) error {
	host := make(map[int]int) // VM id → shard
	for i, s := range shards {
		if ov := cloud.CheckReserved(s.placement, s.table); len(ov) > 0 {
			return fmt.Errorf("shard %d: %d PMs break Eq. (17), first: %v", i, len(ov), ov[0])
		}
		for _, vm := range s.placement.VMs() {
			if j, dup := host[vm.ID]; dup {
				return fmt.Errorf("VM %d is placed on shard %d and on shard %d", vm.ID, j, i)
			}
			host[vm.ID] = i
		}
	}
	if placed := int(st.Placed) - int(st.Departed); placed != st.VMs {
		return fmt.Errorf("placed %d − departed %d = %d, but %d VMs are live", st.Placed, st.Departed, placed, st.VMs)
	}
	if len(host) != st.VMs {
		return fmt.Errorf("snapshots hold %d VMs, stats report %d", len(host), st.VMs)
	}
	clientLive := 0
	for id, l := range live {
		if !l {
			continue
		}
		clientLive++
		if _, ok := host[id]; !ok {
			return fmt.Errorf("VM %d is live for its client but placed nowhere", id)
		}
	}
	if clientLive != len(host) {
		return fmt.Errorf("%d VMs are placed, the clients hold %d live", len(host), clientLive)
	}
	return nil
}

// digest is the part of a simulator report that must repeat exactly for one
// seed.
type digest struct {
	FinalPMs, TotalMigrations, PowerOns int
	CVRMean                             float64
}

func digestOf(r *sim.Report) digest {
	return digest{FinalPMs: r.FinalPMs, TotalMigrations: r.TotalMigrations, PowerOns: r.PowerOns, CVRMean: r.CVR.Mean()}
}

// checkDigests verifies that every run of one seed reported the same digest.
func checkDigests(ds []digest) error {
	for i, d := range ds[1:] {
		if d != ds[0] {
			return fmt.Errorf("run %d reported %+v, run 0 reported %+v", i+1, d, ds[0])
		}
	}
	return nil
}
