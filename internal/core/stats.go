package core

// Stats counts protocol events on one node. Counters are plain fields —
// nodes are single-threaded, and the experiment harness aggregates
// snapshots between phases.
type Stats struct {
	MsgsIn  uint64
	MsgsOut uint64

	PingsSent      uint64
	PongsSent      uint64
	UpdatesApplied uint64

	ElectionsStarted uint64
	ElectionsWon     uint64
	ParentAdopted    uint64
	Splits           uint64
	Promotions       uint64 // level gains (election wins + grants accepted)
	Demotions        uint64
	Reparents        uint64
	ReparentsStation uint64 // redirects: child needs a level above ours
	ReparentsCloser  uint64 // redirects: a member strictly closer exists
	ReparentsSplit   uint64 // re-homes after a promotion grant
	BusRepairs       uint64

	LookupsStarted   uint64
	LookupsForwarded uint64
	LookupsDelivered uint64
	LookupsNotFound  uint64
	LookupsDropped   uint64 // TTL exhaustion observed at this node

	// Lookup failover (failover.go).
	LookupAcksSolicited  uint64 // forwards sent with the ack-wanted bit (held)
	LookupFailovers      uint64 // held forwards whose peer stayed silent to the verdict (excluded)
	LookupFalseFailovers uint64 // peers excluded by a failover, then heard from
	LookupHedgesEarly    uint64 // peers routed around by a hedge, then heard from before the verdict
	LookupHeldOverflows  uint64 // stale forwards sent un-held: no free slot
	LookupReissues       uint64 // requests routed again from the origin on RTO
	LookupsStrict        uint64 // forwards made past the hop budget

	LeavesSent uint64 // graceful-departure announcements sent
	LeavesRecv uint64 // peers dropped on a received departure

	ProbesSent      uint64 // ring repair probes originated (verification + void)
	ProbesForwarded uint64 // probes relayed toward the void
	ProbeEdges      uint64 // probes answered as the far edge of a gap
	MergeIntrosSent uint64 // ring-zip introductions originated
	MergeGreets     uint64 // introductions acted on with a greeting
}

// Add accumulates other into s (for network-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.MsgsIn += o.MsgsIn
	s.MsgsOut += o.MsgsOut
	s.PingsSent += o.PingsSent
	s.PongsSent += o.PongsSent
	s.UpdatesApplied += o.UpdatesApplied
	s.ElectionsStarted += o.ElectionsStarted
	s.ElectionsWon += o.ElectionsWon
	s.ParentAdopted += o.ParentAdopted
	s.Splits += o.Splits
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.Reparents += o.Reparents
	s.ReparentsStation += o.ReparentsStation
	s.ReparentsCloser += o.ReparentsCloser
	s.ReparentsSplit += o.ReparentsSplit
	s.BusRepairs += o.BusRepairs
	s.LookupsStarted += o.LookupsStarted
	s.LookupsForwarded += o.LookupsForwarded
	s.LookupsDelivered += o.LookupsDelivered
	s.LookupsNotFound += o.LookupsNotFound
	s.LookupsDropped += o.LookupsDropped
	s.LookupAcksSolicited += o.LookupAcksSolicited
	s.LookupFailovers += o.LookupFailovers
	s.LookupFalseFailovers += o.LookupFalseFailovers
	s.LookupHedgesEarly += o.LookupHedgesEarly
	s.LookupHeldOverflows += o.LookupHeldOverflows
	s.LookupReissues += o.LookupReissues
	s.LookupsStrict += o.LookupsStrict
	s.LeavesSent += o.LeavesSent
	s.LeavesRecv += o.LeavesRecv
	s.ProbesSent += o.ProbesSent
	s.ProbesForwarded += o.ProbesForwarded
	s.ProbeEdges += o.ProbeEdges
	s.MergeIntrosSent += o.MergeIntrosSent
	s.MergeGreets += o.MergeGreets
}
