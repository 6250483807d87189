package simsrv

import (
	"fmt"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

// Request is the wire form of one simulation: machine config, workload, and
// parameters. Deadline and injection fields shape the request's handling,
// never the simulation, and are excluded from the memo key.
type Request struct {
	Kernel     string `json:"kernel"`               // BT, CG, FT, SP, MG
	Class      string `json:"class"`                // T, S, W, A
	Model      string `json:"model"`                // Opteron270, XeonHT, NiagaraT1
	Threads    int    `json:"threads"`              // team size; 0 = 1
	Policy     string `json:"policy"`               // 4KB, 2MB, mixed, transparent
	Sharing    string `json:"sharing,omitempty"`    // partitioned (default, the only mode; kept for npb.RunConfig.Sharing, see machine.SharingMode)
	Barrier    string `json:"barrier,omitempty"`    // tree (default), central
	Iterations int    `json:"iterations,omitempty"` // 0 = kernel default
	HugePages  int    `json:"huge_pages,omitempty"` // hugetlbfs pool size; 0 = fit

	// DeadlineMS is the client's deadline budget in milliseconds, capped by
	// the server's MaxDeadline; 0 takes the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Inject triggers a test-only fault inside the session ("panic");
	// rejected unless the server runs with AllowInject.
	Inject string `json:"inject,omitempty"`
}

// Response is the wire form of a completed simulation: the type clients
// decode a /run answer into. The server does not encode it: writeResult
// writes the same bytes by hand around the result's stored canonical JSON,
// so a field added here must be added there too (TestServerWarmRestartFromDisk
// checks that every answer re-encodes to itself through this type).
type Response struct {
	Key    string     `json:"key"`    // canonical content key of the run
	Cached bool       `json:"cached"` // true if answered from the memo or the disk cache
	Result npb.Result `json:"result"`
}

// errorKind classifies a failed request for the wire and the counters.
type errorKind string

const (
	kindInvalid   errorKind = "invalid_request"
	kindSaturated errorKind = "saturated"
	kindDraining  errorKind = "draining"
	kindAborted   errorKind = "aborted"
	kindPanic     errorKind = "session_panic"
	kindInternal  errorKind = "internal"
)

// ErrorBody is the wire form of a failed request.
type ErrorBody struct {
	Kind    errorKind `json:"kind"`
	Message string    `json:"message"`
}

// compile translates the wire request into a run config and the kernel's
// own name, rejecting anything the simulator cannot represent. The kernel
// is named as npb spells it (Kernel.Name), however the request spells it,
// so "cg" and "CG" share one key and one warm template. The returned key is
// the canonical content hash of everything that shapes the simulation —
// model cost tables included — and nothing that does not (deadline,
// injection).
func (s *Server) compile(req *Request) (cfg npb.RunConfig, kernel, key string, err error) {
	kernel, err = npb.KernelName(req.Kernel)
	if err != nil {
		return cfg, "", "", err
	}
	class, err := npb.ParseClass(req.Class)
	if err != nil {
		return cfg, "", "", err
	}
	model, ok := machine.ModelByName(req.Model)
	if !ok {
		return cfg, "", "", fmt.Errorf("simsrv: unknown model %q", req.Model)
	}
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return cfg, "", "", err
	}
	sharing, err := parseSharing(req.Sharing)
	if err != nil {
		return cfg, "", "", err
	}
	barrier, err := parseBarrier(req.Barrier)
	if err != nil {
		return cfg, "", "", err
	}
	threads := req.Threads
	if threads == 0 {
		threads = 1
	}
	if threads < 1 || threads > model.MaxThreads() {
		return cfg, "", "", fmt.Errorf("simsrv: %d threads exceed %s's %d hardware contexts",
			threads, model.Name, model.MaxThreads())
	}
	if req.Iterations < 0 || req.HugePages < 0 || req.DeadlineMS < 0 {
		return cfg, "", "", fmt.Errorf("simsrv: negative iterations, huge_pages or deadline_ms")
	}
	if req.Inject != "" && req.Inject != "panic" {
		return cfg, "", "", fmt.Errorf("simsrv: unknown inject %q", req.Inject)
	}
	if req.Inject != "" && !s.cfg.AllowInject {
		return cfg, "", "", fmt.Errorf("simsrv: fault injection is disabled on this server")
	}
	cfg = npb.RunConfig{
		Model:      model,
		Threads:    threads,
		Policy:     policy,
		Class:      class,
		Iterations: req.Iterations,
		Sharing:    sharing,
		Barrier:    barrier,
		HugePages:  req.HugePages,
	}
	// npb.RunKey covers exactly the simulated configuration, never Ctx: a
	// retry with a different deadline, or a duplicate from another client,
	// lands on the same content address — the same address every other
	// driver (sweep, bench, another simd) uses for the same run.
	return cfg, kernel, npb.RunKey(kernel, cfg), nil
}

// budget computes the request's deadline budget under the server cap.
func (s *Server) budget(req *Request) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

func parsePolicy(s string) (core.PagePolicy, error) {
	switch s {
	case "4KB", "4kb", "4k", "":
		return core.Policy4K, nil
	case "2MB", "2mb", "2m":
		return core.Policy2M, nil
	case "mixed":
		return core.PolicyMixed, nil
	case "transparent", "thp":
		return core.PolicyTransparent, nil
	}
	return 0, fmt.Errorf("simsrv: unknown policy %q", s)
}

func parseSharing(s string) (machine.SharingMode, error) {
	if s != "partitioned" && s != "" {
		return 0, fmt.Errorf("simsrv: unknown sharing mode %q (only partitioned sharing is simulated)", s)
	}
	return machine.SharePartition, nil
}

func parseBarrier(s string) (omp.BarrierAlgo, error) {
	switch s {
	case "tree", "":
		return omp.TreeBarrier, nil
	case "central":
		return omp.CentralBarrier, nil
	}
	return 0, fmt.Errorf("simsrv: unknown barrier %q", s)
}
