package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"emts/internal/dag"
	"emts/internal/intern"
	"emts/internal/platform"
)

// ScheduleRequest is the body of POST /v1/schedule. Graph is the PTG JSON
// file format (the structure produced by emts-daggen and dag.Graph's
// MarshalJSON); Cluster selects a platform preset or describes one inline.
type ScheduleRequest struct {
	// Graph is the PTG in its JSON file format.
	Graph json.RawMessage `json:"graph"`
	// Cluster selects the platform.
	Cluster ClusterSpec `json:"cluster"`
	// Model names the execution-time model (default "synthetic").
	Model string `json:"model,omitempty"`
	// Algorithm names the scheduler (default "emts5").
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives every stochastic choice; equal requests give equal
	// responses.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS optionally tightens the server's per-request deadline. It can
	// only lower the server limit, never raise it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Islands selects the island-model EA for EMTS algorithms: 0 or 1 is the
	// classic single population, N > 1 runs N coupled subpopulations (see
	// ea.Config.Islands). Bounded by the server's MaxIslands cap.
	Islands int `json:"islands,omitempty"`
	// MigrationInterval is the generation period between island migrations
	// (0 picks the default; ignored when Islands <= 1).
	MigrationInterval int `json:"migration_interval,omitempty"`
}

// ClusterSpec names a platform preset ("chti", "grelon") or describes a
// homogeneous cluster inline. Preset and the inline fields are mutually
// exclusive.
type ClusterSpec struct {
	Preset      string  `json:"preset,omitempty"`
	Name        string  `json:"name,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	SpeedGFlops float64 `json:"speed_gflops,omitempty"`
}

// RequestError is a typed validation failure of a schedule request. The
// server maps it (and dag.DecodeError) to a 400 response naming the field.
type RequestError struct {
	// Field is the JSON path of the offending element.
	Field string
	// Msg describes the violation.
	Msg string
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("server: invalid request: %s: %s", e.Field, e.Msg)
}

func requestErrorf(field, msg string, args ...interface{}) *RequestError {
	return &RequestError{Field: field, Msg: fmt.Sprintf(msg, args...)}
}

// maxTableCells bounds tasks × procs, the size of the execution-time table a
// request makes the server build: 1<<24 float64 cells is 128 MiB. Without it
// a few hundred bytes naming a huge inline cluster would allocate gigabytes.
const maxTableCells = 1 << 24

// parsedRequest is a fully validated schedule request: the decoded graph, the
// resolved cluster, normalized names, and the canonical cache key.
type parsedRequest struct {
	req     ScheduleRequest
	graph   *dag.Graph
	cluster platform.Cluster
	// model and algorithm are the lowercased names; existence is checked by
	// the simulator (its typed sentinels map to 400s like RequestErrors do).
	model     string
	algorithm string
	// key is the canonical cache key: a digest over the canonical graph
	// encoding, the resolved cluster, and the normalized run parameters.
	key string
	// graphKey is the canonical identity of the graph alone
	// (hex SHA-256 of its canonical encoding) — the table intern keys on it.
	graphKey string
	// graphInterned reports that the graph came out of the intern instead of
	// the decoder (the X-Emts-Interned header's graph component).
	graphInterned bool
}

// parseScheduleRequest decodes and validates an untrusted request body.
// maxTasks bounds the accepted graph size and maxIslands the requested island
// count (0 = unlimited for both); tasks × procs is always bounded by
// maxTableCells. When graphs is non-nil, the graph is resolved through the
// intern: a repeat submission of the same bytes skips JSON decoding, graph
// construction, and the canonical re-encoding entirely.
// All rejections are typed (*RequestError or *dag.DecodeError) and identical
// with or without an intern.
func parseScheduleRequest(body []byte, maxTasks, maxIslands int, graphs *intern.Graphs) (*parsedRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req ScheduleRequest
	if err := dec.Decode(&req); err != nil {
		return nil, requestErrorf("body", "malformed JSON: %v", err)
	}
	// A second document after the first is a smuggling smell; reject it.
	if dec.More() {
		return nil, requestErrorf("body", "trailing data after request object")
	}
	if len(req.Graph) == 0 {
		return nil, requestErrorf("graph", "missing")
	}
	var (
		g        *dag.Graph
		canon    []byte
		graphKey string
		hit      bool
	)
	if graphs != nil {
		entry, wasInterned, err := graphs.Get(req.Graph)
		if err != nil {
			return nil, err // *dag.DecodeError for validation, fmt for malformed JSON
		}
		g, canon, graphKey, hit = entry.Graph, entry.Canon, entry.CanonKey, wasInterned
	} else {
		var err error
		g, err = dag.UnmarshalGraph(req.Graph)
		if err != nil {
			return nil, err
		}
		canon, err = json.Marshal(g)
		if err != nil {
			return nil, fmt.Errorf("server: canonicalizing request: %w", err)
		}
		sum := sha256.Sum256(canon)
		graphKey = hex.EncodeToString(sum[:])
	}
	if g.NumTasks() == 0 {
		return nil, requestErrorf("graph.tasks", "empty graph")
	}
	if maxTasks > 0 && g.NumTasks() > maxTasks {
		return nil, requestErrorf("graph.tasks", "%d tasks exceeds the admission limit of %d", g.NumTasks(), maxTasks)
	}
	cluster, err := req.Cluster.resolve()
	if err != nil {
		return nil, err
	}
	// Divide instead of multiplying so the check cannot overflow.
	if cluster.Procs > maxTableCells/g.NumTasks() {
		return nil, requestErrorf("cluster.procs", "%d processors for %d tasks exceeds the admission limit of %d table cells",
			cluster.Procs, g.NumTasks(), maxTableCells)
	}
	if req.TimeoutMS < 0 {
		return nil, requestErrorf("timeout_ms", "negative value %d", req.TimeoutMS)
	}
	if req.Islands < 0 {
		return nil, requestErrorf("islands", "negative value %d", req.Islands)
	}
	if maxIslands > 0 && req.Islands > maxIslands {
		return nil, requestErrorf("islands", "%d islands exceeds the admission limit of %d", req.Islands, maxIslands)
	}
	if req.MigrationInterval < 0 {
		return nil, requestErrorf("migration_interval", "negative value %d", req.MigrationInterval)
	}
	p := &parsedRequest{
		req:           req,
		graph:         g,
		cluster:       cluster,
		model:         strings.ToLower(req.Model),
		algorithm:     strings.ToLower(req.Algorithm),
		graphKey:      graphKey,
		graphInterned: hit,
	}
	if p.model == "" {
		p.model = "synthetic"
	}
	if p.algorithm == "" {
		p.algorithm = "emts5"
	}
	p.key = canonicalKey(canon, cluster, p.model, p.algorithm, req.Seed, req.Islands, req.MigrationInterval)
	return p, nil
}

// resolve maps the spec to a validated platform.Cluster.
func (cs ClusterSpec) resolve() (platform.Cluster, error) {
	if cs.Preset != "" {
		if cs.Name != "" || cs.Procs != 0 || cs.SpeedGFlops != 0 {
			return platform.Cluster{}, requestErrorf("cluster", "preset and inline fields are mutually exclusive")
		}
		switch strings.ToLower(cs.Preset) {
		case "chti":
			return platform.Chti(), nil
		case "grelon":
			return platform.Grelon(), nil
		}
		return platform.Cluster{}, requestErrorf("cluster.preset", "unknown preset %q (have chti, grelon)", cs.Preset)
	}
	name := cs.Name
	if name == "" {
		name = "cluster"
	}
	c, err := platform.New(name, cs.Procs, cs.SpeedGFlops)
	if err != nil {
		return platform.Cluster{}, requestErrorf("cluster", "%v", err)
	}
	return c, nil
}

// canonicalKey digests the semantic content of a request. canonGraph is the
// graph's canonical MarshalJSON encoding (deterministic task and edge order,
// cached by the intern), so two submissions that differ only in JSON
// whitespace, field order, or float spelling of the same value stream map to
// the same key. The digest layout is unchanged from the pre-intern code for
// single-population requests — the island parameters extend the digest ONLY
// when islands > 1 (islands <= 1 is the classic run regardless of the
// migration interval), so every pre-existing key stays byte-identical and the
// response cache keys identically whether interning is on or off.
func canonicalKey(canonGraph []byte, cluster platform.Cluster, model, algorithm string, seed int64, islands, migrationInterval int) string {
	h := sha256.New()
	h.Write(canonGraph)
	fmt.Fprintf(h, "\x00%s\x00%d\x00%g\x00%s\x00%s\x00%s",
		cluster.Name, cluster.Procs, cluster.SpeedGFlops, model, algorithm, strconv.FormatInt(seed, 10))
	if islands > 1 {
		fmt.Fprintf(h, "\x00islands\x00%d\x00%d", islands, migrationInterval)
	}
	return hex.EncodeToString(h.Sum(nil))
}
