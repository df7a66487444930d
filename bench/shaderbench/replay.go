package main

import (
	"fmt"

	"shaderopt/internal/core"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// replay re-runs Session.Sweep serially from each layer's public
// functions, wrapping every call in a span of the benchmark's own tracer.
// It keeps the session's dedupe: the driver front end once per distinct
// text, the vendor compile once per (vendor, canonical fingerprint), and
// the measurement once per (vendor, variant hash). Its counts are checked
// against the session registry of a serial reference run.
type replay struct {
	tr        *telemetry.Tracer
	cfg       harness.Config
	platforms []*gpu.Platform
	// plain holds each platform with Ingest cleared, so re-ingest and the
	// vendor passes time apart.
	plain     map[string]*gpu.Platform
	anyMobile bool

	frontEnds map[string]*frontEnd        // by text hash
	compiled  map[[2]string]*gpu.Compiled // by (vendor, fingerprint)
	scores    map[[2]string]float64       // by (vendor, variant hash)
	counts    struct{ frontEnds, compiles, batches, samples int64 }
}

// frontEnd is the driver front end's work for one distinct text.
type frontEnd struct {
	prog       *ir.Program
	fp         string
	es, esHash string
}

func newReplay(tr *telemetry.Tracer, cfg harness.Config, platforms []*gpu.Platform) *replay {
	rp := &replay{
		tr: tr, cfg: cfg, platforms: platforms,
		plain:     map[string]*gpu.Platform{},
		frontEnds: map[string]*frontEnd{},
		compiled:  map[[2]string]*gpu.Compiled{},
		scores:    map[[2]string]float64{},
	}
	for _, pl := range platforms {
		cp := *pl
		cp.Ingest = ""
		rp.plain[pl.Vendor] = &cp
		rp.anyMobile = rp.anyMobile || pl.Mobile
	}
	return rp
}

// span times fn under a leaf span named after the layer it calls into.
func (rp *replay) span(name string, fn func()) {
	s := rp.tr.Start(name, "layer")
	fn()
	s.End()
}

// frontEndFor is the driver front end for one text: parse and lower (or,
// for the exact text a handle was lowered from, a clone of its IR), the
// GLES conversion of desktop texts, canonicalization, and the canonical
// fingerprint that keys vendor compiles.
func (rp *replay) frontEndFor(src, hash string, handle *core.Shader, convertES bool) (*frontEnd, error) {
	if fe, ok := rp.frontEnds[hash]; ok {
		return fe, nil
	}
	rp.counts.frontEnds++
	fe := &frontEnd{}
	var err error
	rp.span("gpu.frontend", func() {
		if handle != nil {
			fe.prog = handle.IR()
		} else {
			fe.prog, err = gpu.FrontEnd(src, "driver")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("driver front end: %w", err)
	}
	if convertES && rp.anyMobile {
		rp.span("crossc.es", func() {
			fe.es, err = crossc.ESFromIR(fe.prog, "mobile")
			fe.esHash = core.HashSource(fe.es)
		})
		if err != nil {
			return nil, fmt.Errorf("mobile conversion: %w", err)
		}
	}
	rp.span("passes.canonicalize", func() { passes.Canonicalize(fe.prog) })
	rp.span("core.fingerprint_canonical", func() { fe.fp = core.FingerprintCanonical(fe.prog) })
	rp.frontEnds[hash] = fe
	return fe, nil
}

// compile is the vendor compile of a canonical lowering: re-ingest through
// the platform's format (plus its re-canonicalization), then the vendor
// passes, ISA analysis and cost model on the platform copy with Ingest
// cleared.
func (rp *replay) compile(pl *gpu.Platform, fe *frontEnd) (*gpu.Compiled, error) {
	key := [2]string{pl.Vendor, fe.fp}
	if c, ok := rp.compiled[key]; ok {
		return c, nil
	}
	rp.counts.compiles++
	var prog *ir.Program
	if pl.Ingest != "" && pl.Ingest != crossc.IngestGLSL {
		var err error
		rp.span("crossc.reingest_"+pl.Ingest, func() {
			prog, err = crossc.Reingest(fe.prog.Clone(), pl.Vendor, pl.Ingest)
			if err == nil {
				passes.Canonicalize(prog)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	var c *gpu.Compiled
	rp.span("gpu.compile_"+pl.Vendor, func() {
		if prog == nil { // GLSL ingestion is the identity
			prog = fe.prog.Clone()
		}
		c = rp.plain[pl.Vendor].CompileCanonical(prog)
	})
	rp.compiled[key] = c
	return c, nil
}

// baseline is the session's unmodified-original baseline: the author's
// GLSL, or for translated frontends the all-flags-off variant. The handle
// is non-nil only when the text is exactly what its IR was lowered from.
func baseline(h *core.Shader, vs *core.VariantSet) (src, hash string, handle *core.Shader) {
	if h.Lang != core.LangGLSL {
		v := vs.VariantFor(core.NoFlags)
		return v.Source, v.Hash, nil
	}
	return h.Source, h.Hash, h
}

// measure scores one shader's baseline and variants on one platform:
// every text not yet scored on the platform goes through the front end
// and the compile cache, and all of them are sampled in one batch.
func (rp *replay) measure(h *core.Shader, vs *core.VariantSet, pl *gpu.Platform) (float64, map[string]float64, error) {
	type slot struct {
		src, hash string
		handle    *core.Shader
	}
	origSrc, origHash, origHandle := baseline(h, vs)
	slots := []slot{{origSrc, origHash, origHandle}}
	for _, v := range vs.Variants {
		slots = append(slots, slot{src: v.Source, hash: v.Hash})
	}
	var items []harness.BatchItem
	var owned []string
	seen := map[string]bool{}
	for _, sl := range slots {
		if _, ok := rp.scores[[2]string{pl.Vendor, sl.hash}]; ok || seen[sl.hash] {
			continue
		}
		seen[sl.hash] = true
		fe, err := rp.frontEndFor(sl.src, sl.hash, sl.handle, true)
		if err == nil && pl.Mobile {
			fe, err = rp.frontEndFor(fe.es, fe.esHash, nil, false)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("%s driver: %w", pl.Vendor, err)
		}
		c, err := rp.compile(pl, fe)
		if err != nil {
			return 0, nil, err
		}
		items = append(items, harness.BatchItem{Compiled: c, SrcForSeed: sl.src})
		owned = append(owned, sl.hash)
	}
	if len(items) > 0 {
		rp.counts.batches++
		rp.counts.samples += int64(len(items) * rp.cfg.Frames * rp.cfg.Repeats)
		var ms []*harness.Measurement
		rp.span("harness.measure_batch", func() { ms = harness.MeasureBatch(pl, items, rp.cfg) })
		for i, m := range ms {
			rp.scores[[2]string{pl.Vendor, owned[i]}] = m.Score()
		}
	}
	per := make(map[string]float64, len(vs.Variants))
	for _, v := range vs.Variants {
		per[v.Hash] = rp.scores[[2]string{pl.Vendor, v.Hash}]
	}
	return rp.scores[[2]string{pl.Vendor, origHash}], per, nil
}
