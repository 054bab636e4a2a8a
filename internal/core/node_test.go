package core

import (
	"runtime/debug"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/rtable"
)

func TestNewNodeDefaults(t *testing.T) {
	env := newFakeEnv(1)
	n := NewNode(Config{ID: 42, Routing: routing.Params{Height: 3}}, env)
	if n.cfg.MaxHeight != 6 || n.Config().Routing != (routing.Params{Height: 6}) {
		t.Fatalf("defaults not applied: %+v", n.cfg)
	}
	if n.MaxChildren() < 2 {
		t.Fatal("maxChildren floor")
	}
	if n.Ref().ID != 42 || n.Ref().Addr != 1 || n.Ref().MaxLevel != 0 {
		t.Fatalf("ref %v", n.Ref())
	}
	if n.String() == "" {
		t.Fatal("String")
	}
}

func TestHelloHandshake(t *testing.T) {
	n, env := testNode(100, 1)
	peer := mkRef(200, 2, 0)
	n.HandleMessage(2, &proto.Hello{From: peer, MaxChildren: 4})
	replies := msgsOfType[*proto.Hello](env.drain())
	if len(replies) != 1 {
		t.Fatalf("first hello should be answered, got %d replies", len(replies))
	}
	// Second hello from a known peer: no re-introduction.
	n.HandleMessage(2, &proto.Hello{From: peer, MaxChildren: 4})
	if len(msgsOfType[*proto.Hello](env.drain())) != 0 {
		t.Fatal("known peer re-greeted")
	}
	if n.Table().Level0.Get(2) == nil {
		t.Fatal("peer not in level-0 table")
	}
}

func TestPingPongDelta(t *testing.T) {
	n, env := testNode(100, 1)
	peer := mkRef(200, 2, 0)
	// Three level-0 entries on the right: 110 and 120 are within the
	// structural advertisement window (two per side, re-shipped every
	// pong); 150 is an indirect entry that must ship once as delta and
	// then stay quiet.
	n.InstallLevel0(mkRef(110, 5, 0), mkRef(120, 4, 0), mkRef(150, 3, 0))
	n.HandleMessage(2, &proto.Ping{From: peer, Seq: 7})
	pongs := msgsOfType[*proto.Pong](env.drain())
	if len(pongs) != 1 || pongs[0].Seq != 7 {
		t.Fatalf("pong: %+v", pongs)
	}
	first := pongs[0].Entries
	if len(first) == 0 {
		t.Fatal("first pong should carry the table delta")
	}
	saw150 := false
	for _, e := range first {
		if e.Ref.Addr == 3 {
			saw150 = true
		}
	}
	if !saw150 {
		t.Fatal("first pong must include the indirect entry")
	}
	// Second ping with no table change: the indirect entry must not be
	// re-shipped (only structural relationships repeat).
	n.HandleMessage(2, &proto.Ping{From: peer, Seq: 8})
	pongs = msgsOfType[*proto.Pong](env.drain())
	if len(pongs) != 1 {
		t.Fatal("second pong missing")
	}
	for _, e := range pongs[0].Entries {
		if e.Ref.Addr == 3 {
			t.Fatalf("unchanged indirect entry reshipped: %+v", e)
		}
	}
}

// ofTypeTo returns the recorded messages of type T addressed to addr.
func ofTypeTo[T proto.Message](sent []sentMsg, addr uint64) []T {
	var out []T
	for _, s := range sent {
		if m, ok := s.msg.(T); ok && s.to == addr {
			out = append(out, m)
		}
	}
	return out
}

// TestKeepaliveOnePingPerPair: of an active pair the lower (ID, Addr) end
// pings every round; the higher end pings only once the lower has been
// silent past a round and its slack.
func TestKeepaliveOnePingPerPair(t *testing.T) {
	// Piggyback-only: the pings counted are the keep-alive round's, not
	// the update push of the election this lone node wins.
	piggyback := func(c *Config) { c.ImmediateUpdates = false }
	n, env := testNode(100, 1, piggyback)
	ka := keepAlive
	lo, hi := mkRef(90, 2, 0), mkRef(110, 3, 0)
	n.InstallLevel0(lo, hi)
	var heardLo time.Duration
	var pingedLo []int
	for round := 1; round <= 5; round++ {
		env.advance(ka)
		bound := n.rttBound() // what the tick saw: no pong has arrived since
		sent := env.drain()
		toHi := ofTypeTo[*proto.Ping](sent, hi.Addr)
		if len(toHi) != 1 {
			t.Fatalf("round %d: %d pings to the higher peer, want 1", round, len(toHi))
		}
		n.HandleMessage(hi.Addr, &proto.Pong{From: hi, Seq: toHi[0].Seq})
		quiet := env.now-heardLo > ka+bound
		if got := len(ofTypeTo[*proto.Ping](sent, lo.Addr)); got != 0 {
			if !quiet {
				t.Fatalf("round %d: pinged the lower peer %v after hearing it", round, env.now-heardLo)
			}
			pingedLo = append(pingedLo, round)
		} else if quiet {
			t.Fatalf("round %d: lower peer silent %v and not pinged", round, env.now-heardLo)
		}
		if round <= 3 { // the lower end pings us, then goes quiet
			n.HandleMessage(lo.Addr, &proto.Ping{From: lo, Seq: uint32(round)})
			heardLo = env.now
		}
	}
	if len(pingedLo) != 1 || pingedLo[0] != 5 {
		t.Fatalf("lower peer pinged in rounds %v, want [5]", pingedLo)
	}

	// A one-sided active view: the lower peer answers but never pings.
	n, env = testNode(100, 1, piggyback)
	n.InstallLevel0(lo)
	last := time.Duration(0)
	for round := 1; round <= 8; round++ {
		env.advance(ka)
		if p := ofTypeTo[*proto.Ping](env.drain(), lo.Addr); len(p) > 0 {
			n.HandleMessage(lo.Addr, &proto.Pong{From: lo, Seq: p[0].Seq})
			last = env.now
		}
		if env.now-last > 2*ka {
			t.Fatalf("round %d: lower peer unpinged for %v", round, env.now-last)
		}
		if e := n.Table().Level0.Get(lo.Addr); e == nil || !e.DirectFresh(env.now, EntryTTL) {
			t.Fatalf("round %d: one-sided neighbour lapsed", round)
		}
	}
}

// TestSweepRegreetsOnlyStaleNeighbours: an expiring level-0 entry greets
// the nearest neighbours only if they are not direct-fresh already.
func TestSweepRegreetsOnlyStaleNeighbours(t *testing.T) {
	far := mkRef(80, 4, 0)
	expiring := func(n *Node, env *fakeEnv) {
		n.table.Level0.Upsert(far, proto.FNeighbor|proto.FIndirect, env.now-EntryTTL, n.table.NextVersion(), rtable.Hearsay)
	}
	hellosTo := func(sent []sentMsg, addr uint64) int { return len(ofTypeTo[*proto.Hello](sent, addr)) }

	// Both neighbours pinged and live: the hearsay contact ages out quietly.
	n, env := testNode(100, 1)
	n.InstallLevel0(mkRef(90, 2, 0), mkRef(110, 3, 0))
	expiring(n, env)
	env.advance(sweepInterval)
	if n.Table().Level0.Get(far.Addr) != nil {
		t.Fatal("the hearsay contact did not expire")
	}
	sent := env.drain()
	if h := hellosTo(sent, 2) + hellosTo(sent, 3); h != 0 {
		t.Fatalf("%d hellos to direct-fresh neighbours", h)
	}

	// The right nearest is hearsay only: it is the one greeted.
	n, env = testNode(100, 1)
	n.InstallLevel0(mkRef(90, 2, 0))
	n.table.Level0.Upsert(mkRef(110, 3, 0), proto.FNeighbor, env.now, n.table.NextVersion(), rtable.Hearsay)
	expiring(n, env)
	env.advance(sweepInterval)
	sent = env.drain()
	if hellosTo(sent, 3) != 1 || hellosTo(sent, 2) != 0 {
		t.Fatalf("hellos to the stale / live neighbour: %d / %d, want 1 / 0", hellosTo(sent, 3), hellosTo(sent, 2))
	}
}

func TestJoinAcceptAndRedirect(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	// No better candidate: accept.
	joiner := mkRef(idspace.FromFraction(0.51), 9, 0)
	n.HandleMessage(9, &proto.JoinRequest{From: joiner})
	accepts := msgsOfType[*proto.JoinAccept](env.drain())
	if len(accepts) != 1 {
		t.Fatal("expected accept")
	}
	if accepts[0].Left.Addr != 1 {
		t.Fatalf("acceptor should be the joiner's left neighbour: %+v", accepts[0])
	}
	// A closer known node: redirect.
	closer := mkRef(idspace.FromFraction(0.8), 5, 0)
	n.InstallLevel0(closer)
	joiner2 := mkRef(idspace.FromFraction(0.82), 10, 0)
	n.HandleMessage(10, &proto.JoinRequest{From: joiner2})
	redirects := msgsOfType[*proto.JoinRedirect](env.drain())
	if len(redirects) != 1 || redirects[0].Closer.Addr != 5 {
		t.Fatalf("expected redirect to 5: %+v", redirects)
	}
}

func TestJoinAcceptHandling(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.3), 1)
	acc := &proto.JoinAccept{
		From:   mkRef(idspace.FromFraction(0.29), 2, 0),
		Left:   mkRef(idspace.FromFraction(0.28), 3, 0),
		Right:  mkRef(idspace.FromFraction(0.31), 4, 0),
		Parent: mkRef(idspace.FromFraction(0.25), 5, 1),
	}
	n.HandleMessage(2, acc)
	sent := env.drain()
	if len(msgsOfType[*proto.Hello](sent)) != 2 {
		t.Fatalf("should greet both neighbours: %v", sortedAddrs(sent))
	}
	reports := msgsOfType[*proto.ChildReport](sent)
	if len(reports) != 1 {
		t.Fatal("should court the given parent with a child report")
	}
	if _, ok := n.Table().Parent(); ok {
		t.Fatal("unverified parent must not be installed before its ack")
	}
	// The courted parent answers: adoption completes.
	n.HandleMessage(5, &proto.Pong{From: acc.Parent, Seq: 0})
	if p, ok := n.Table().Parent(); !ok || p.Addr != 5 {
		t.Fatal("parent not installed after ack")
	}
}

func TestChildReportAcceptAndAck(t *testing.T) {
	// A level-1 node with no other level-1 members covers everything.
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	child := mkRef(idspace.FromFraction(0.52), 7, 0)
	n.HandleMessage(7, &proto.ChildReport{From: child, Degree: 2})
	if n.Table().Children.Get(7) == nil {
		t.Fatal("child not recorded")
	}
	acks := msgsOfType[*proto.Pong](env.drain())
	if len(acks) != 1 {
		t.Fatal("child report should be acked with a delta pong")
	}
}

func TestChildReportRedirects(t *testing.T) {
	// Child needs a level-2 parent but we are level 1: redirect to a known
	// level-2 member — provided it is strictly closer to the child than we
	// are (redirect chains must make monotone progress).
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	member2 := mkRef(idspace.FromFraction(0.53), 8, 2)
	n.InstallBus(2, member2)
	child := mkRef(idspace.FromFraction(0.54), 7, 1)
	n.HandleMessage(7, &proto.ChildReport{From: child, Degree: 2})
	reps := msgsOfType[*proto.Reparent](env.drain())
	if len(reps) != 1 || reps[0].NewParent.Addr != 8 {
		t.Fatalf("expected reparent to level-2 member: %+v", reps)
	}
	if n.Table().Children.Get(7) != nil {
		t.Fatal("redirected child must not be recorded")
	}
	// A known member *farther* from the child than us must not be offered:
	// instead of a redirect cycle we refuse explicitly (zero NewParent) so
	// the child stops courting us.
	far := mkRef(idspace.FromFraction(0.9), 9, 2)
	n2, env2 := testNode(idspace.FromFraction(0.5), 2)
	n2.InstallLevel(1)
	n2.InstallBus(2, far)
	n2.HandleMessage(7, &proto.ChildReport{From: child, Degree: 2})
	got := msgsOfType[*proto.Reparent](env2.drain())
	if len(got) != 1 || !got[0].NewParent.IsZero() {
		t.Fatalf("expected an explicit refusal: %+v", got)
	}
}

func TestChildReportOutsideRegionRedirects(t *testing.T) {
	// Two level-1 members: self at 0.25 and peer at 0.75; a child at 0.9
	// belongs to the peer's cell.
	n, env := testNode(idspace.FromFraction(0.25), 1)
	n.InstallLevel(1)
	peer := mkRef(idspace.FromFraction(0.75), 8, 1)
	n.InstallBus(1, peer)
	child := mkRef(idspace.FromFraction(0.9), 7, 0)
	n.HandleMessage(7, &proto.ChildReport{From: child, Degree: 2})
	reps := msgsOfType[*proto.Reparent](env.drain())
	if len(reps) != 1 || reps[0].NewParent.Addr != 8 {
		t.Fatalf("expected redirect to peer: %+v", reps)
	}
}

func TestSplitPromotesStrongestChild(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	// nc defaults to 4: a fifth child triggers a split.
	kids := []proto.NodeRef{
		{ID: idspace.FromFraction(0.40), Addr: 11, Score: 1000},
		{ID: idspace.FromFraction(0.45), Addr: 12, Score: 2000},
		{ID: idspace.FromFraction(0.55), Addr: 13, Score: 60000}, // strongest
		{ID: idspace.FromFraction(0.60), Addr: 14, Score: 3000},
	}
	n.InstallChildren(kids...)
	fifth := proto.NodeRef{ID: idspace.FromFraction(0.62), Addr: 15, Score: 500}
	n.HandleMessage(15, &proto.ChildReport{From: fifth, Degree: 2})
	sent := env.drain()
	grants := msgsOfType[*proto.PromoteGrant](sent)
	if len(grants) != 1 {
		t.Fatalf("expected one grant: %+v", grants)
	}
	var grantTo uint64
	for _, s := range sent {
		if _, ok := s.msg.(*proto.PromoteGrant); ok {
			grantTo = s.to
		}
	}
	if grantTo != 13 {
		t.Fatalf("grant went to %d, want strongest child 13", grantTo)
	}
	if grants[0].Level != 1 {
		t.Fatalf("grant level %d", grants[0].Level)
	}
	// Children in the promotee's cell are re-homed.
	reps := msgsOfType[*proto.Reparent](sent)
	if len(reps) == 0 {
		t.Fatal("expected reparents for moved children")
	}
	for _, r := range reps {
		if r.NewParent.Addr != 13 {
			t.Fatalf("reparent to %d, want 13", r.NewParent.Addr)
		}
	}
	if n.Stats.Splits != 1 {
		t.Fatal("split not counted")
	}
}

// TestSplitCountsOneLevel: nc bounds the children of one level, the node's
// cell at the level above them. A level-3 parent with three children at
// each of levels 0, 1 and 2 is under nc at every level and does not split;
// a fifth level-1 child splits level 2, and the grant goes to the
// strongest level-1 child, not to the stronger level-2 one.
func TestSplitCountsOneLevel(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(3)
	kid := func(frac float64, addr uint64, lvl uint8, score uint16) proto.NodeRef {
		return proto.NodeRef{ID: idspace.FromFraction(frac), Addr: addr, MaxLevel: lvl, Score: score}
	}
	n.InstallChildren(
		kid(0.10, 10, 0, 1000), kid(0.12, 11, 0, 1000),
		kid(0.30, 20, 1, 2000), kid(0.32, 21, 1, 9000), kid(0.34, 22, 1, 3000),
		kid(0.70, 30, 2, 60000), kid(0.72, 31, 2, 500), kid(0.74, 32, 2, 500),
	)
	n.HandleMessage(12, &proto.ChildReport{From: kid(0.14, 12, 0, 1000), Degree: 2})
	n.HandleMessage(23, &proto.ChildReport{From: kid(0.36, 23, 1, 100), Degree: 2})
	if grants := msgsOfType[*proto.PromoteGrant](env.drain()); len(grants) != 0 || n.Stats.Splits != 0 {
		t.Fatalf("no level holds more than nc = 4 children, yet %d grants and %d splits", len(grants), n.Stats.Splits)
	}
	n.HandleMessage(24, &proto.ChildReport{From: kid(0.38, 24, 1, 100), Degree: 2})
	var grantTo []uint64
	var grantLvl uint8
	for _, s := range env.drain() {
		if g, ok := s.msg.(*proto.PromoteGrant); ok {
			grantTo, grantLvl = append(grantTo, s.to), g.Level
		}
	}
	if len(grantTo) != 1 || grantTo[0] != 21 || grantLvl != 2 {
		t.Fatalf("grants to %v at level %d, want one to the strongest level-1 child 21 at level 2", grantTo, grantLvl)
	}
}

func TestPromoteGrantAccepted(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	n.InstallParent(parent)
	env.drain()
	grant := &proto.PromoteGrant{
		From:   parent,
		Level:  1,
		Region: proto.FromIDSpace(idspace.Region{Lo: idspace.FromFraction(0.45), Hi: idspace.MaxID}),
		Left:   parent,
	}
	n.HandleMessage(2, grant)
	if n.MaxLevel() != 1 {
		t.Fatalf("maxLevel %d after grant", n.MaxLevel())
	}
	sent := env.drain()
	if len(msgsOfType[*proto.BusLinkReq](sent)) == 0 {
		t.Fatal("promoted node should link into the bus")
	}
	if len(msgsOfType[*proto.ChildReport](sent)) == 0 {
		t.Fatal("promoted node should re-report to its parent")
	}
	if n.Stats.Promotions != 1 {
		t.Fatal("promotion not counted")
	}
	// A grant from a non-parent is ignored.
	n2, _ := testNode(idspace.FromFraction(0.5), 1)
	n2.HandleMessage(9, grant)
	if n2.MaxLevel() != 0 {
		t.Fatal("grant from stranger accepted")
	}
}

func TestElectionFlow(t *testing.T) {
	// Parentless node with two level-0 neighbours: election starts, and
	// with no competing claim the countdown promotes it.
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel0(mkRef(idspace.FromFraction(0.45), 2, 0), mkRef(idspace.FromFraction(0.55), 3, 0))
	env.drain()
	env.advance(sweepInterval + time.Millisecond) // sweep runs ensureHierarchy
	calls := msgsOfType[*proto.ElectionCall](env.drain())
	if len(calls) != 2 {
		t.Fatalf("election calls %d, want 2 (both neighbours)", len(calls))
	}
	if n.Stats.ElectionsStarted != 1 {
		t.Fatal("election not counted")
	}
	env.advance(electionMax + time.Second)
	if n.MaxLevel() != 1 {
		t.Fatalf("maxLevel %d after winning election", n.MaxLevel())
	}
	if n.Stats.ElectionsWon != 1 {
		t.Fatal("win not counted")
	}
	claims := msgsOfType[*proto.ParentClaim](env.drain())
	if len(claims) == 0 {
		t.Fatal("winner should claim its children")
	}
}

func TestParentClaimAdoptionCancelsElection(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel0(mkRef(idspace.FromFraction(0.45), 2, 0), mkRef(idspace.FromFraction(0.55), 3, 0))
	env.advance(sweepInterval + time.Millisecond) // start election
	env.drain()
	claimant := mkRef(idspace.FromFraction(0.48), 4, 1)
	n.HandleMessage(4, &proto.ParentClaim{From: claimant, Level: 1, Region: proto.FromIDSpace(idspace.FullRegion())})
	if p, ok := n.Table().Parent(); !ok || p.Addr != 4 {
		t.Fatal("claim not adopted")
	}
	reports := msgsOfType[*proto.ChildReport](env.drain())
	if len(reports) != 1 {
		t.Fatal("adoption should trigger a child report")
	}
	// The countdown must be dead: advancing far must not promote us.
	env.advance(time.Minute)
	if n.MaxLevel() != 0 {
		t.Fatal("election fired after adoption")
	}
}

func TestElectionCallFromParentedNodeAnswersWithClaim(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	n.InstallParent(parent)
	env.drain()
	n.HandleMessage(9, &proto.ElectionCall{From: mkRef(idspace.FromFraction(0.52), 9, 0), Level: 1})
	claims := msgsOfType[*proto.ParentClaim](env.drain())
	if len(claims) != 1 || claims[0].From.Addr != 2 {
		t.Fatalf("parented node should forward its parent as claim: %+v", claims)
	}
}

// TestElectionCallFromOwnParentGetsNoClaim: our parent slot is stale and
// names the caller, which has since dropped to level 0 and calls an
// election. Answering with our parent would hand the caller its own ref.
func TestElectionCallFromOwnParentGetsNoClaim(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	n.InstallParent(parent)
	env.drain()
	caller := parent
	caller.MaxLevel = 0
	n.HandleMessage(2, &proto.ElectionCall{From: caller, Level: 1})
	for _, c := range msgsOfType[*proto.ParentClaim](env.drain()) {
		if c.From.Addr == caller.Addr {
			t.Fatalf("the caller was offered itself as parent: %+v", c)
		}
	}
}

// TestParentClaimNamingReceiverIsIgnored: a claim that names the receiver
// (a peer's stale parent slot, passed on) is never adopted.
func TestParentClaimNamingReceiverIsIgnored(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel0(mkRef(idspace.FromFraction(0.45), 2, 0))
	env.drain()
	self := n.Ref()
	self.MaxLevel = 1
	n.HandleMessage(2, &proto.ParentClaim{From: self, Level: 1, Region: proto.FromIDSpace(idspace.FullRegion())})
	if p, ok := n.Table().Parent(); ok {
		t.Fatalf("node adopted %+v as its parent", p)
	}
	if reports := msgsOfType[*proto.ChildReport](env.drain()); len(reports) != 0 {
		t.Fatalf("node reported to itself: %+v", reports)
	}
}

func TestDemotionAfterChildLoss(t *testing.T) {
	// The peers keep greeting: this test exercises the demotion countdown,
	// not entry expiry.
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	peer := mkRef(idspace.FromFraction(0.7), 8, 1)
	n.InstallBus(1, peer)
	child := mkRef(idspace.FromFraction(0.51), 7, 0)
	n.InstallChildren(child)
	env.drain()
	// One child < 2: demotion countdown arms on the next sweep and fires.
	keepFresh(n, env, peer, sweepInterval+demotionMax+time.Second, func() {
		n.HandleMessage(child.Addr, &proto.Hello{From: child})
	})
	if n.MaxLevel() != 0 {
		t.Fatalf("maxLevel %d, want demoted to 0", n.MaxLevel())
	}
	sent := env.drain()
	if len(msgsOfType[*proto.Demote](sent)) == 0 {
		t.Fatal("bus neighbours not told about demotion")
	}
	reps := msgsOfType[*proto.Reparent](sent)
	if len(reps) == 0 || reps[0].NewParent.Addr != 8 {
		t.Fatalf("children should be handed to the successor: %+v", reps)
	}
	if n.Stats.Demotions != 1 {
		t.Fatal("demotion not counted")
	}
}

func TestDemotionCancelledWhenChildrenRecover(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	first, second := mkRef(idspace.FromFraction(0.51), 7, 0), mkRef(idspace.FromFraction(0.49), 9, 0)
	n.InstallChildren(first)
	env.advance(sweepInterval + time.Millisecond) // arm countdown
	// Second child arrives before expiry; both stay in touch.
	n.HandleMessage(9, &proto.ChildReport{From: second, Degree: 2})
	keepFresh(n, env, first, demotionMax+time.Second, func() {
		n.HandleMessage(second.Addr, &proto.Hello{From: second})
	})
	if n.MaxLevel() != 1 {
		t.Fatal("demotion fired despite recovered children")
	}
}

func TestDemoteMessageUpdatesParent(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	successor := mkRef(idspace.FromFraction(0.6), 3, 1)
	n.InstallParent(parent)
	env.drain()
	n.HandleMessage(2, &proto.Demote{From: parent, Level: 1, Successor: successor})
	if len(msgsOfType[*proto.ChildReport](env.drain())) == 0 {
		t.Fatal("should court the successor with a report")
	}
	// Successor answers: it becomes the parent.
	n.HandleMessage(3, &proto.Pong{From: successor, Seq: 0})
	if p, ok := n.Table().Parent(); !ok || p.Addr != 3 {
		t.Fatal("parent not switched to successor after ack")
	}
}

func TestBusLinkReqAck(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(2)
	other := mkRef(idspace.FromFraction(0.2), 4, 2)
	n.InstallBus(2, other)
	joiner := mkRef(idspace.FromFraction(0.7), 9, 2)
	n.HandleMessage(9, &proto.BusLinkReq{From: joiner, Level: 2})
	acks := msgsOfType[*proto.BusLinkAck](env.drain())
	if len(acks) != 1 {
		t.Fatal("no ack")
	}
	if acks[0].Left.Addr != 1 {
		t.Fatalf("joiner's left should be self: %+v", acks[0])
	}
	if n.Table().BusLevel(2).Get(9) == nil {
		t.Fatal("joiner not recorded on bus")
	}
}

func TestBusLinkAckMergesNeighbors(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	env.drain()
	ack := &proto.BusLinkAck{
		From:  mkRef(idspace.FromFraction(0.6), 4, 1),
		Level: 1,
		Left:  mkRef(idspace.FromFraction(0.45), 5, 1),
		Right: mkRef(idspace.FromFraction(0.7), 6, 1),
	}
	n.HandleMessage(4, ack)
	bus := n.Table().BusLevel(1)
	if bus.Get(4) == nil || bus.Get(5) == nil || bus.Get(6) == nil {
		t.Fatal("ack refs not merged")
	}
}

func TestApplyEntriesPlacement(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	n.InstallParent(parent)
	env.drain()
	grandparent := mkRef(idspace.FromFraction(0.3), 10, 2)
	parentNbr := mkRef(idspace.FromFraction(0.8), 11, 1)
	entries := []proto.Entry{
		{Ref: grandparent, Level: 2, Flags: proto.FParent, Version: 1},
		{Ref: parentNbr, Level: 1, Flags: proto.FNeighbor, Version: 2},
	}
	n.HandleMessage(2, &proto.Pong{From: parent, Seq: 1, Entries: entries})
	if n.Table().Superiors.Get(10) == nil {
		t.Fatal("grandparent should enter the superior list")
	}
	if n.Table().Superiors.Get(11) == nil {
		t.Fatal("parent's bus neighbour should enter the superior list")
	}
}

// TestNbrChildrenFromEveryBus: a node keeps the children of its direct
// neighbours on every bus it holds, not only on its top one: a level-2
// node files the children its level-1 bus neighbour advertises.
func TestNbrChildrenFromEveryBus(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(2)
	nbr1 := mkRef(idspace.FromFraction(0.45), 2, 1)
	n.InstallBus(1, nbr1)
	n.InstallBus(2, mkRef(idspace.FromFraction(0.7), 3, 2))
	env.drain()
	child := mkRef(idspace.FromFraction(0.44), 20, 0)
	entries := []proto.Entry{{Ref: child, Level: 0, Flags: proto.FChild, Version: 1}}
	n.HandleMessage(2, &proto.Pong{From: nbr1, Seq: 1, Entries: entries})
	if n.Table().NbrChildren.Get(20) == nil {
		t.Fatal("the level-1 bus neighbour's child should enter the neighbours' children table")
	}
}

func TestApplyEntriesLevel0Gating(t *testing.T) {
	n, _ := testNode(idspace.FromFraction(0.5), 1)
	// Fill the left side beyond the retention span.
	var refs []proto.NodeRef
	for i := 0; i < 5; i++ {
		refs = append(refs, mkRef(idspace.FromFraction(0.49-float64(i)*0.01), uint64(20+i), 0))
	}
	l := mkRef(idspace.FromFraction(0.495), 2, 0)
	refs = append(refs, l)
	n.InstallLevel0(refs...)
	// A far-away level-0 ref beyond the per-side span must not be adopted.
	far := mkRef(idspace.FromFraction(0.05), 9, 0)
	n.HandleMessage(2, &proto.Pong{From: l, Seq: 1, Entries: []proto.Entry{
		{Ref: far, Level: 0, Flags: proto.FNeighbor, Version: 1},
	}})
	if n.Table().Level0.Get(9) != nil {
		t.Fatal("distant level-0 ref adopted")
	}
	// A nearer one is adopted.
	near := mkRef(idspace.FromFraction(0.502), 10, 0)
	n.HandleMessage(2, &proto.Pong{From: l, Seq: 2, Entries: []proto.Entry{
		{Ref: near, Level: 0, Flags: proto.FNeighbor, Version: 2},
	}})
	if n.Table().Level0.Get(10) == nil {
		t.Fatal("adjacent level-0 ref not adopted")
	}
}

func TestStopCancelsTimers(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel0(mkRef(idspace.FromFraction(0.45), 2, 0))
	n.Stop()
	env.drain()
	env.advance(time.Minute)
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("stopped node still sent %d messages", len(got))
	}
}

func TestReparentFromStrangerIgnored(t *testing.T) {
	n, _ := testNode(idspace.FromFraction(0.5), 1)
	parent := mkRef(idspace.FromFraction(0.4), 2, 1)
	n.InstallParent(parent)
	n.HandleMessage(99, &proto.Reparent{From: mkRef(0, 99, 1), NewParent: mkRef(1, 98, 1)})
	if p, _ := n.Table().Parent(); p.Addr != 2 {
		t.Fatal("stranger moved our parent")
	}
}

// TestSendToNobodyReleases: a pooled message with no one to go to — the
// node itself, or address 0 — goes back to its pool, so the next acquire
// reuses it instead of allocating.
func TestSendToNobodyReleases(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; pooled paths cannot be alloc-free")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	n, env := testNode(idspace.FromFraction(0.5), 1)
	send := func() {
		for _, to := range []uint64{n.Addr(), 0} {
			p := proto.Acquire(proto.TPing).(*proto.Ping)
			p.From = n.Ref()
			n.send(to, p)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("a ping sent to nobody allocated %.1f times per run, want 0", allocs)
	}
	if len(env.sent) != 0 || n.Stats.MsgsOut != 0 {
		t.Fatalf("%d sends reached the network, %d counted", len(env.sent), n.Stats.MsgsOut)
	}
}
