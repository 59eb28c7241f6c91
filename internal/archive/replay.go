package archive

// Replay re-derives the pool's attribution state — found blocks,
// per-account credited work and per-account paid balances — from the
// archived event stream alone. It is the durable-data twin of the live
// pool's FoundBlocks/AccountSnapshot surface: a live run and a replay
// of its archive must agree bit for bit, which the coinhive test suite
// asserts and `poolwatch -from-archive` exposes to operators.

// ReplayBlock mirrors one found block as archived.
type ReplayBlock struct {
	Height    uint64
	Timestamp uint64
	Backend   int
	Reward    uint64
}

// ReplayBan is one archived ban, for operator display.
type ReplayBan struct {
	timeNs   int64
	identity string
}

// ReplayResult aggregates an archive into attribution state.
type ReplayResult struct {
	Events uint64 // total events consumed

	SharesAccepted  uint64
	SharesStale     uint64
	SharesDuplicate uint64
	SharesRejected  uint64
	Retargets       uint64
	ChainHeight     uint64 // highest KindBlockAppend seen

	// SharesGossipedIn counts federation entries admitted from peers;
	// Reorgs counts share-chain order displacements. Gossiped-in credit
	// is deliberately NOT folded into Credit: that map mirrors the local
	// pool's AccountSnapshot surface, which federation does not touch —
	// federated credit converges in the share-chain, not the accounts.
	SharesGossipedIn uint64
	Reorgs           uint64

	Blocks []ReplayBlock
	Bans   []ReplayBan

	// Credit is total hashes credited per account token (the sum of
	// accepted-share difficulty); Paid is the payout sum per token.
	Credit map[string]uint64
	Paid   map[string]uint64
}

// Replay consumes the whole store from the start of retained history.
func Replay(store Store) (*ReplayResult, error) {
	res := &ReplayResult{
		Credit: map[string]uint64{},
		Paid:   map[string]uint64{},
	}
	var (
		c   Cursor
		buf [256]Event
	)
	for {
		n, next, err := store.Next(c, buf[:])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return res, nil
		}
		c = next
		for i := 0; i < n; i++ {
			res.apply(&buf[i])
		}
	}
}

func (r *ReplayResult) apply(ev *Event) {
	r.Events++
	switch ev.Kind {
	case KindShareAccepted:
		r.SharesAccepted++
		r.Credit[ev.Actor] += ev.Amount
	case KindShareStale:
		r.SharesStale++
	case KindShareDuplicate:
		r.SharesDuplicate++
	case KindShareRejected:
		r.SharesRejected++
	case KindRetarget:
		r.Retargets++
	case KindBan:
		r.Bans = append(r.Bans, ReplayBan{timeNs: ev.TimeNs, identity: ev.Actor})
	case KindBlockAppend:
		if ev.Height > r.ChainHeight {
			r.ChainHeight = ev.Height
		}
	case KindBlockFound:
		r.Blocks = append(r.Blocks, ReplayBlock{
			Height:    ev.Height,
			Timestamp: ev.Aux,
			Backend:   int(ev.Aux2),
			Reward:    ev.Amount,
		})
	case KindPayout:
		r.Paid[ev.Actor] += ev.Amount
	case KindShareGossipIn:
		r.SharesGossipedIn++
	case KindReorg:
		r.Reorgs++
	}
}
