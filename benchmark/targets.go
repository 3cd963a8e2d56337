package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"dvecap/internal/core"
	"dvecap/internal/director"
	"dvecap/internal/repair"
	"dvecap/internal/xrand"
	"dvecap/telemetry"
)

// target applies a director workload's requests at one layer. stats, when
// non-nil, receives the body of a read_stats request.
type target interface {
	apply(e *dirEvent, stats *director.Stats) error
}

// request renders an event as the HTTP request the API expects, with the
// status a success answers.
func request(e *dirEvent) (method, path string, body []byte, want int) {
	switch e.Kind {
	case opJoin:
		return http.MethodPost, "/v1/clients",
			[]byte(`{"id":"` + e.ID + `","node":` + strconv.Itoa(e.Node) + `,"zone":` + strconv.Itoa(e.Zone) + `}`), http.StatusCreated
	case opLeave:
		return http.MethodDelete, "/v1/clients/" + e.ID, nil, http.StatusNoContent
	case opMove:
		return http.MethodPost, "/v1/clients/" + e.ID + "/move", []byte(`{"zone":` + strconv.Itoa(e.Zone) + `}`), http.StatusOK
	case opAdjAdd:
		return http.MethodPost, "/v1/adjacency/add",
			[]byte(`{"zone1":` + strconv.Itoa(e.Zone) + `,"zone2":` + strconv.Itoa(e.Zone2) +
				`,"delta_mbps":` + strconv.FormatFloat(e.Delta, 'g', -1, 64) + `}`), http.StatusOK
	case opReassign:
		return http.MethodPost, "/v1/reassign", nil, http.StatusOK
	case opReadStats:
		return http.MethodGet, "/v1/stats", nil, http.StatusOK
	default:
		return http.MethodGet, "/v1/clients/" + e.ID, nil, http.StatusOK
	}
}

// loopback serves a director's HTTP API on a loopback port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(d *director.Director) (*loopback, error) { return serveHandler(director.Handler(d)) }

func serveHandler(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits for its serve loop to return.
func (lb *loopback) close() error {
	err := lb.srv.Close()
	if serr := <-lb.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// httpConn is one client connection of the closed loop: a transport
// limited to a single kept-alive TCP connection.
type httpConn struct {
	url string
	tr  *http.Transport
	c   *http.Client
}

func dial(url string) *httpConn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpConn{url: url, tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpConn) close() { h.tr.CloseIdleConnections() }

// do sends one request and fails on any status but want.
func (h *httpConn) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (h *httpConn) apply(e *dirEvent, stats *director.Stats) error {
	method, path, body, want := request(e)
	if e.Kind == opReadStats && stats != nil {
		return h.do(method, path, body, want, stats)
	}
	return h.do(method, path, body, want, nil)
}

// handlerTarget calls director.Handler in process with a recorder.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) apply(e *dirEvent, stats *director.Stats) error {
	method, path, body, want := request(e)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if e.Kind == opReadStats && stats != nil {
		return json.Unmarshal(rec.Body.Bytes(), stats)
	}
	return nil
}

// directorTarget calls the *director.Director methods.
type directorTarget struct{ d *director.Director }

func (t directorTarget) apply(e *dirEvent, stats *director.Stats) error {
	var err error
	switch e.Kind {
	case opJoin:
		_, err = t.d.Join(e.ID, e.Node, e.Zone)
	case opLeave:
		err = t.d.Leave(e.ID)
	case opMove:
		_, err = t.d.Move(e.ID, e.Zone)
	case opAdjAdd:
		_, err = t.d.AddAdjacencyWeight(e.Zone, e.Zone2, e.Delta)
	case opReassign:
		_, err = t.d.Reassign()
	case opReadStats:
		s := t.d.Stats()
		if stats != nil {
			*stats = s
		}
	case opReadClient:
		_, err = t.d.Lookup(e.ID)
	}
	return err
}

// plannerTarget drives internal/repair directly with what the director
// would feed it: delay rows from the same delay oracle, and the bandwidth
// model's per-zone refresh before every membership change. It is built the
// way director.New builds its planner, so on the same stream it reaches
// the same state bit for bit.
type plannerTarget struct {
	dep  *deployment
	b    *repair.IDBinding
	pl   *repair.Planner
	pop  []int
	zone map[string]int
}

func newPlannerTarget(dep *deployment, reg *telemetry.Registry) (*plannerTarget, error) {
	algo, ok := core.ByName("GreZ-GreC")
	if !ok {
		return nil, fmt.Errorf("no GreZ-GreC algorithm")
	}
	m := len(dep.nodes)
	p := &core.Problem{
		ServerCaps:    append([]float64(nil), dep.caps...),
		ClientZones:   []int{},
		NumZones:      dep.zones,
		ClientRT:      []float64{},
		CS:            [][]float64{},
		SS:            make([][]float64, m),
		D:             delayBoundMs,
		TrafficWeight: dep.trafficWeight,
	}
	for i := range p.SS {
		p.SS[i] = make([]float64, m)
		for l := range p.SS[i] {
			p.SS[i][l] = dep.dm.ServerRTT(dep.nodes[i], dep.nodes[l])
		}
	}
	rr := make([]int, dep.zones)
	for z := range rr {
		rr[z] = z % m
	}
	pl, err := repair.NewWithAssignment(repair.Config{
		Algo: algo,
		Opt:  core.Options{Overflow: core.SpillLargestResidual},
	}, p, &core.Assignment{ZoneServer: rr, ClientContact: []int{}}, xrand.New(dep.seed).Split())
	if err != nil {
		return nil, err
	}
	b, err := repair.NewIDBinding(pl, nil)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		pl.SetTelemetry(reg)
	}
	return &plannerTarget{dep: dep, b: b, pl: pl, pop: make([]int, dep.zones), zone: map[string]int{}}, nil
}

func (t *plannerTarget) refresh(z int) {
	if t.pop[z] > 0 {
		_ = t.pl.RefreshZoneRT(z, clientMbps(t.pop[z]))
	}
}

func (t *plannerTarget) apply(e *dirEvent, _ *director.Stats) error {
	switch e.Kind {
	case opJoin:
		t.pop[e.Zone]++
		t.refresh(e.Zone)
		if err := t.b.Join(e.ID, e.Zone, clientMbps(t.pop[e.Zone]), delayRow(t.dep.dm, t.dep.nodes, e.Node)); err != nil {
			return err
		}
		t.zone[e.ID] = e.Zone
	case opLeave:
		z, ok := t.zone[e.ID]
		if !ok {
			return fmt.Errorf("planner: unknown client %q", e.ID)
		}
		t.pop[z]--
		t.refresh(z)
		if err := t.b.Leave(e.ID); err != nil {
			return err
		}
		delete(t.zone, e.ID)
	case opMove:
		old, ok := t.zone[e.ID]
		if !ok {
			return fmt.Errorf("planner: unknown client %q", e.ID)
		}
		if e.Zone != old {
			t.pop[old]--
			t.pop[e.Zone]++
			t.refresh(old)
			t.refresh(e.Zone)
			_ = t.b.SetRT(e.ID, clientMbps(t.pop[e.Zone]))
		}
		if err := t.b.Move(e.ID, e.Zone); err != nil {
			return err
		}
		t.zone[e.ID] = e.Zone
	case opAdjAdd:
		return t.pl.AddAdjacency(e.Zone, e.Zone2, e.Delta)
	case opReassign:
		if t.b.Len() == 0 {
			return nil
		}
		return t.pl.FullSolve()
	}
	return nil
}

// state is the planner's view in the director's Stats vocabulary.
func (t *plannerTarget) state() layerState {
	st := t.pl.Stats()
	return layerState{
		Clients:  t.b.Len(),
		WithQoS:  t.pl.WithQoS(),
		PQoS:     t.pl.PQoS(),
		Cut:      t.pl.TrafficCut(),
		Handoffs: st.ZoneHandoffs,
		Switches: st.ContactSwitches,
		Hosts:    t.pl.ZoneServers(),
	}
}

// journalEvent is the record the director journals for a write.
func journalEvent(e *dirEvent) *repair.Event {
	switch e.Kind {
	case opJoin:
		return &repair.Event{Op: repair.OpDJoin, ID: e.ID, Node: e.Node, ZoneIdx: e.Zone}
	case opLeave:
		return &repair.Event{Op: repair.OpDLeave, ID: e.ID}
	case opMove:
		return &repair.Event{Op: repair.OpDMove, ID: e.ID, ZoneIdx: e.Zone}
	case opAdjAdd:
		return &repair.Event{Op: repair.OpDAddAdjacency, ZoneIdx: e.Zone, ZoneIdx2: e.Zone2, Weight: e.Delta}
	case opReassign:
		return &repair.Event{Op: repair.OpResolve}
	}
	return nil
}

// layerState is what every layer must agree on after the same stream.
type layerState struct {
	Clients, WithQoS   int
	PQoS, Cut          float64
	Handoffs, Switches int
	Hosts              []int
}

func directorState(d *director.Director) layerState {
	s := d.Stats()
	st := layerState{Clients: s.Clients, WithQoS: s.WithQoS, PQoS: s.PQoS, Cut: s.TrafficCutMbps,
		Handoffs: s.ZoneHandoffs, Switches: s.ContactSwitches}
	for _, z := range d.Zones() {
		st.Hosts = append(st.Hosts, z.Server)
	}
	return st
}

// diff names the first field on which two states disagree ("" if none).
// Counters are compared as deltas over the stream.
func (s layerState) diff(o layerState) string {
	switch {
	case s.Clients != o.Clients:
		return fmt.Sprintf("clients %d vs %d", s.Clients, o.Clients)
	case s.WithQoS != o.WithQoS:
		return fmt.Sprintf("with_qos %d vs %d", s.WithQoS, o.WithQoS)
	case s.PQoS != o.PQoS:
		return fmt.Sprintf("pqos %v vs %v", s.PQoS, o.PQoS)
	case s.Cut != o.Cut:
		return fmt.Sprintf("traffic cut %v vs %v", s.Cut, o.Cut)
	case s.Handoffs != o.Handoffs:
		return fmt.Sprintf("zone handoffs %d vs %d", s.Handoffs, o.Handoffs)
	case s.Switches != o.Switches:
		return fmt.Sprintf("contact switches %d vs %d", s.Switches, o.Switches)
	case len(s.Hosts) != len(o.Hosts):
		return fmt.Sprintf("%d zones vs %d", len(s.Hosts), len(o.Hosts))
	}
	for z := range s.Hosts {
		if s.Hosts[z] != o.Hosts[z] {
			return fmt.Sprintf("zone %d hosted on %d vs %d", z, s.Hosts[z], o.Hosts[z])
		}
	}
	return ""
}

// minus turns cumulative counters into deltas from a starting state.
func (s layerState) minus(start layerState) layerState {
	s.Handoffs -= start.Handoffs
	s.Switches -= start.Switches
	return s
}

// preload applies set-up requests, failing on the first error.
func preload(t target, evs []dirEvent) error {
	for i := range evs {
		if err := t.apply(&evs[i], nil); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// checkAPI compares the API's view with the generator's once the loop is
// quiet: the client count, and the qos flags against with_qos.
func checkAPI(rep *report, conn *httpConn, live int) {
	var st director.Stats
	if err := conn.do("GET", "/v1/stats", nil, 200, &st); err != nil {
		rep.check("GET /v1/stats: %v", err)
		return
	}
	if st.Clients != live {
		rep.check("/v1/stats clients %d, generator holds %d", st.Clients, live)
	}
	var cl []director.ClientInfo
	if err := conn.do("GET", "/v1/clients", nil, 200, &cl); err != nil {
		rep.check("GET /v1/clients: %v", err)
		return
	}
	qos := 0
	for _, c := range cl {
		if c.QoS {
			qos++
		}
	}
	if len(cl) != st.Clients || qos != st.WithQoS {
		rep.check("GET /v1/clients lists %d clients, %d with qos; stats say %d and %d", len(cl), qos, st.Clients, st.WithQoS)
	}
}
