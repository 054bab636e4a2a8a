package core

// Stats counts the decisions only the node can see. Datagrams are counted
// by the transport that carries them (netsim.Stats, a netsim.WithTrace
// hook, udptransport.Snapshot), not here. Counters are plain fields:
// nodes are single-threaded.
type Stats struct {
	ElectionsStarted uint64
	ElectionsWon     uint64
	Splits           uint64
	Promotions       uint64 // level gains (election wins + grants accepted)
	Demotions        uint64
	LeavesRecv       uint64 // peers dropped on a received departure

	LookupsForwarded uint64
	LookupsDropped   uint64 // TTL exhaustion observed at this node

	// Lookup failover (failover.go).
	LookupAcksSolicited  uint64 // forwards sent with the ack-wanted bit (held)
	LookupFailovers      uint64 // held forwards whose peer stayed silent to the verdict (excluded)
	LookupFalseFailovers uint64 // peers excluded by a failover, then heard from
	LookupHedgesEarly    uint64 // peers routed around by a hedge, then heard from before the verdict
	LookupHeldOverflows  uint64 // stale forwards sent un-held: no free slot
	LookupReissues       uint64 // requests routed again from the origin on RTO
	LookupsStrict        uint64 // forwards made past the hop budget
}

// Add accumulates other into s (for network-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.ElectionsStarted += o.ElectionsStarted
	s.ElectionsWon += o.ElectionsWon
	s.Splits += o.Splits
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.LeavesRecv += o.LeavesRecv
	s.LookupsForwarded += o.LookupsForwarded
	s.LookupsDropped += o.LookupsDropped
	s.LookupAcksSolicited += o.LookupAcksSolicited
	s.LookupFailovers += o.LookupFailovers
	s.LookupFalseFailovers += o.LookupFalseFailovers
	s.LookupHedgesEarly += o.LookupHedgesEarly
	s.LookupHeldOverflows += o.LookupHeldOverflows
	s.LookupReissues += o.LookupReissues
	s.LookupsStrict += o.LookupsStrict
}
