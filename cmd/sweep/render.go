package main

import (
	"fmt"

	"shaderopt"
)

// renderEvent formats one per-shader progress line of a running sweep:
// the shader's source language, variant count, where the shader's time
// went (enumeration vs the measurement pipeline), and how much work the
// session caches absorbed (measurement scores served from cache, driver
// compiles reused). The output is pure in the event, so the golden test
// can pin the format.
func renderEvent(ev shaderopt.SweepEvent) string {
	enum := fmt.Sprintf("enum %6.1fms", ev.EnumMS)
	if ev.EnumCached {
		enum = "enum   cached" // same width as the timed form
	}
	return fmt.Sprintf("  [%*d/%d] %-26s %-4s %3d variants, %s, meas %7.1fms, %4d measured, %3d cached, %3d compiles reused",
		len(fmt.Sprint(ev.Total)), ev.Done, ev.Total, ev.Shader, ev.Lang,
		ev.UniqueVariants, enum, ev.MeasureMS, ev.Measured, ev.CacheHits, ev.CompileHits)
}

// sweepStats is the cache summary a finished sweep prints, decoupled from
// the session's metrics snapshot so the golden test can feed fixed values.
type sweepStats struct {
	measHits, measMisses       int64
	compileHits, compileMisses int64
	enumEntries, enumVariants  int
	enumBound                  int
	scoreEntries, scoreBound   int
	scoreEvicted               int64
}

func sessionStats(sess *shaderopt.Session) sweepStats {
	m := sess.Metrics()
	return sweepStats{
		measHits:      m.Counters["session.measure.hits"],
		measMisses:    m.Counters["session.measure.misses"],
		compileHits:   m.Counters["cache.compile.hits"],
		compileMisses: m.Counters["cache.compile.misses"],
		enumEntries:   int(m.Gauges["cache.enum.entries"]),
		enumVariants:  int(m.Gauges["cache.enum.cost"]),
		enumBound:     int(m.Gauges["cache.enum.bound"]),
		scoreEntries:  int(m.Gauges["cache.scores.entries"]),
		scoreBound:    int(m.Gauges["cache.scores.bound"]),
		scoreEvicted:  m.Counters["cache.scores.evictions"],
	}
}

// renderAggregate formats the sweep's final one-line aggregate: corpus
// size, total unique variants, the overall measurement-cache hit rate,
// and where the time went — summed per-shader enumeration and
// measurement wall-clock plus total driver-compile time (read from the
// gpu.compile histogram of the attached telemetry snapshot). Pure in the
// stats, so the golden test can pin the format.
func renderAggregate(st shaderopt.PipelineStats) string {
	return fmt.Sprintf(
		"  total: %d shaders, %d unique variants; cache hit rate %.1f%%; enum %.1fms, measure %.1fms, compile %.1fms",
		st.Shaders, st.UniqueVariants, 100*st.HitRate(),
		st.EnumMS, st.MeasureMS, st.CompileMS())
}

// renderSummary formats the end-of-sweep cache accounting.
func renderSummary(st sweepStats) string {
	return fmt.Sprintf(
		"  %d measurements (%d served from cache); %d driver compiles (%d reused via IR fingerprint)\n"+
			"  enumeration cache %d shaders / %d variants (bound %d); measurement cache %d scores (bound %d, %d evicted)",
		st.measMisses, st.measHits, st.compileMisses, st.compileHits,
		st.enumEntries, st.enumVariants, st.enumBound,
		st.scoreEntries, st.scoreBound, st.scoreEvicted)
}
