package main

import (
	"context"
	"fmt"
	"time"

	"vmwild"
)

// retention is the daemon's default: the paper's 30-day window.
const retention = 30 * 24 * time.Hour

// epoch anchors hour zero of every generated trace (as vmwildd -simulate).
var epoch = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

const (
	// samplesPerHour is the agents' 15-minute collection cadence: eight
	// samples per server per 2-hour consolidation interval.
	samplesPerHour = 4
	// flushAttempts bounds the tries per envelope; loopback never needs a
	// retry, and one shows up in monitor.retries.
	flushAttempts = 5
	// setups is how many times the serving workloads set their system up;
	// setup_s is the median.
	setups = 5
)

// fleet is the Banking profile at a given server count, with one seeded
// monitoring source per server.
type fleet struct {
	set     *vmwild.TraceSet
	specs   map[vmwild.ServerID]vmwild.Spec
	sources []vmwild.MonitorSource
}

func newFleet(servers, hours int, seed int64) (fleet, error) {
	profile := vmwild.Banking()
	profile.Servers = servers
	set, err := vmwild.Generate(profile, hours, seed)
	if err != nil {
		return fleet{}, err
	}
	f := fleet{set: set, specs: make(map[vmwild.ServerID]vmwild.Spec)}
	for i, st := range set.Servers {
		f.specs[st.ID] = st.Spec
		src, err := vmwild.NewTraceSource(st, epoch, seed+int64(i))
		if err != nil {
			return fleet{}, err
		}
		f.sources = append(f.sources, src)
	}
	return f, nil
}

// collect appends one sample per server, in server order, for each
// collection slot in [from, to) (slot k is 15k minutes after epoch).
func (f fleet) collect(out []vmwild.MonitorSample, from, to int) ([]vmwild.MonitorSample, error) {
	for k := from; k < to; k++ {
		ts := epoch.Add(time.Duration(k) * time.Hour / samplesPerHour)
		for _, src := range f.sources {
			smp, err := src.Collect(ts)
			if err != nil {
				return nil, err
			}
			out = append(out, smp)
		}
	}
	return out, nil
}

// servingPlane is vmwildd's serving plane on loopback: the warehouse with
// replicas at the daemon defaults, its agent listener and query server,
// one query client and one reliable sender.
type servingPlane struct {
	wh     *vmwild.Warehouse
	qs     *vmwild.QueryServer
	client *vmwild.QueryClient
	sender *vmwild.ReliableSender
}

// newWarehouse builds a warehouse as vmwildd does by default.
func newWarehouse() *vmwild.Warehouse {
	wh := vmwild.NewWarehouseShards(retention, vmwild.DefaultIngestShards)
	wh.ReadTimeout = 5 * time.Minute
	return wh
}

// start brings the plane up around p.wh, which already holds whatever the
// workload loads or recovers before serving.
func (p *servingPlane) start(agentID string, seed int64) error {
	if err := p.wh.EnableReplicas(vmwild.ReplicaConfig{
		EverySamples: vmwild.DefaultReplicaEverySamples,
		MaxAge:       vmwild.DefaultReplicaMaxAge,
	}); err != nil {
		return err
	}
	addr, err := p.wh.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	p.qs = vmwild.NewQueryServer(p.wh)
	p.qs.ReadTimeout = 5 * time.Minute
	p.qs.RejectWhen = p.wh.UnderPressure
	qaddr, err := p.qs.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if p.client, err = vmwild.DialQuery(context.Background(), qaddr); err != nil {
		return err
	}
	p.sender = &vmwild.ReliableSender{Addr: addr, AgentID: agentID, Seed: seed}
	return nil
}

// close stops whatever start brought up, clients first.
func (p *servingPlane) close() {
	if p.sender != nil {
		p.sender.Close()
	}
	if p.client != nil {
		p.client.Close()
	}
	if p.qs != nil {
		p.qs.Close()
	}
	if p.wh != nil {
		p.wh.Close()
	}
}

// checkLedger gates the sender's books: every queued sample acked, none
// shed or dropped, and the warehouse agrees.
func (p *servingPlane) checkLedger() error {
	c := p.sender.Counters()
	m := p.wh.Metrics()
	if c.Queued != c.Acked || c.ServerShed != 0 || c.DroppedQueue != 0 || c.Pending != 0 {
		return fmt.Errorf("sender ledger: %+v", c)
	}
	if m.AckedSamples != c.Acked || m.JournalErrs != 0 || m.ShedIngest != 0 || m.ShedDisk != 0 {
		return fmt.Errorf("warehouse ledger: acked %d (sender %d), journal errors %d, shed %d+%d",
			m.AckedSamples, c.Acked, m.JournalErrs, m.ShedIngest, m.ShedDisk)
	}
	return nil
}

// layers records the replica and query layers' counters.
func (p *servingPlane) layers(r *result) {
	if rm := p.wh.Metrics().Replica; rm != nil {
		r.layer("replica.publishes", float64(rm.Publishes))
		if rm.Samples > 0 {
			r.layer("replica.bytes_per_sample", float64(rm.CompressedBytes)/float64(rm.Samples))
		}
		lookups := rm.SeriesCacheHits + rm.SeriesCacheMisses
		r.layer("replica.cache_lookups", float64(lookups))
		if lookups > 0 {
			r.layer("replica.cache_hit_ratio", float64(rm.SeriesCacheHits)/float64(lookups))
		}
	}
	qm := p.qs.Metrics()
	pipelined := qm.PooledRequests + qm.FastPathHits
	r.layer("query.pipelined", float64(pipelined))
	if pipelined > 0 {
		r.layer("query.fast_path_frac", float64(qm.FastPathHits)/float64(pipelined))
	}
	if qm.PooledRequests > 0 {
		r.layer("query.queue_wait_us", float64(qm.QueueWaitMicros)/float64(qm.PooledRequests))
	}
}
