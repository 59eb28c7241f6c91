package coinhive

import (
	"repro/internal/cryptonight"
	"repro/internal/stratum"
	"repro/internal/ws"
)

// jobWire is one job notification encoded once for every transport: the
// decoded Job (for correlation and tests), the TCP dialect's complete
// notify line, and the ws dialect's complete pre-built text frame (the
// header is included — payload length is fixed per difficulty, so nothing
// about the frame is per-session). A jobWire is immutable after
// construction and shared by reference: a tip event encodes each
// (backend, slot, difficulty) combination exactly once, however many
// thousand sessions the fan-out then hands the same bytes to.
type jobWire struct {
	job     stratum.Job
	tcpLine []byte // JSON-RPC job notification, trailing newline included
	wsFrame []byte // complete unmasked ws text frame
}

// newJobWire encodes both wire forms of one job. Every call is a cache
// miss somewhere — pool.job_encodes against server.jobs_sent is the
// bytes-marshaled-per-push telemetry proving the fan-out encodes once.
func (p *Pool) newJobWire(j stratum.Job) *jobWire {
	p.jobEncodes.Inc()
	w := &jobWire{job: j}
	w.tcpLine = stratum.AppendJobNotifyLine(make([]byte, 0, len(j.Blob)+len(j.JobID)+96), j)
	payload := stratum.AppendJobEnvelope(make([]byte, 0, len(j.Blob)+len(j.JobID)+64), j)
	w.wsFrame = ws.AppendServerFrame(make([]byte, 0, len(payload)+4), ws.OpText, payload)
	return w
}

// jobWire returns the current pre-encoded job for an endpoint/slot at
// difficulty diff — whichever tier serves it. Wires are minted lazily
// under the shard lock and cached until the next refresh, which drops the
// cache, so a wire handed to an in-flight event stays valid (and merely
// stale) after the tip moves.
func (p *Pool) jobWire(endpoint, slot int, diff uint64) *jobWire {
	b := p.backendOfEndpoint(endpoint)
	sh := p.backends[b]
	s := ((slot % templatesPerBackend) + templatesPerBackend) % templatesPerBackend
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tip := p.cfg.Chain.TipID(); sh.tip != tip {
		p.refreshShardLocked(sh, b, tip)
	}
	tier := sh.wires[diff]
	if tier == nil {
		tier = make([]*jobWire, templatesPerBackend)
		sh.wires[diff] = tier
	}
	if tier[s] == nil {
		tier[s] = p.newJobWire(stratum.Job{
			JobID:  makeJobID(b, sh.refreshSeq, s, diff),
			Blob:   sh.jobBlobHex[s],
			Target: stratum.EncodeTarget(cryptonight.DifficultyForTarget(diff)),
		})
	}
	return tier[s]
}
