package main

// The codec experiment certifies the binary columnar wire/disk format
// against its JSON predecessors on the generated corpus: for each of the
// three hot payloads (matrix upload, cluster span feed, persisted corpus
// record) it measures encoded bytes and encode/decode throughput in both
// codecs, then proves equivalence end to end — every algorithm solved over
// a binary-fed HTTP worker fleet must match the single-machine solver
// within 1e-9 (on a recorded solver-tractable slice of the corpus when the
// full one would take hours of pair pricing), and the binary matrix must
// round-trip bit-identically. The harness fails on any mismatch and on a
// span or record payload above half the JSON bytes, so the committed
// BENCH_codec.json is a size and equivalence certificate, not just a
// measurement.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/codec"
	"bundling/internal/config"
	"bundling/internal/experiments"
	"bundling/internal/server"
)

// CodecPayload is one payload's size and throughput comparison.
type CodecPayload struct {
	Name      string `json:"name"`
	JSONBytes int    `json:"json_bytes"`
	BinBytes  int    `json:"bin_bytes"`
	// BinOverJSON is the compression certificate: the span and record
	// payloads must stay at or below 0.5.
	BinOverJSON  float64 `json:"bin_over_json"`
	EncodeMBPerS float64 `json:"encode_mb_per_sec"`
	DecodeMBPerS float64 `json:"decode_mb_per_sec"`
}

// CodecAlgo is one algorithm's binary-fed-cluster equivalence entry.
type CodecAlgo struct {
	Algorithm string  `json:"algorithm"`
	Revenue   float64 `json:"revenue"`
	RelDiff   float64 `json:"rel_diff"` // vs the single-machine solver
}

// CodecReport is the file schema of BENCH_codec.json.
type CodecReport struct {
	GeneratedAt string `json:"generated_at"`
	Scale       string `json:"scale"`
	Users       int    `json:"users"`
	Items       int    `json:"items"`
	Entries     int    `json:"entries"`
	Go          string `json:"go"`
	NumCPU      int    `json:"numcpu"`
	MaxProcs    int    `json:"maxprocs"`
	StripeSize  int    `json:"stripe_size"`

	Payloads []CodecPayload `json:"payloads"`

	// Equivalence of the full pipeline: every algorithm solved through a
	// binary-fed two-worker HTTP fleet vs the local solver. Sizes above are
	// always the full corpus; the solves run on a slice of it when the full
	// corpus is solver-intractable in a bench run (hours of optimal2 pair
	// pricing at paper scale) — the slice dimensions are recorded here, so
	// the certificate states exactly what was proven.
	EquivUsers   int         `json:"equiv_users"`
	EquivItems   int         `json:"equiv_items"`
	EquivEntries int         `json:"equiv_entries"`
	ClusterAlgos []CodecAlgo `json:"cluster_algorithms"`
	MaxRelDiff   float64     `json:"max_rel_diff"`
	FeedBytesBin int64       `json:"feed_bytes_bin"`
}

// throughput times fn over enough iterations to be measurable and returns
// MB/s against the payload size it processes per call.
func throughput(payloadBytes int, fn func() error) (float64, error) {
	iters := 1
	if payloadBytes > 0 {
		if iters = (64 << 20) / payloadBytes; iters < 3 {
			iters = 3
		}
		if iters > 200 {
			iters = 200
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(payloadBytes) * float64(iters) / (1 << 20) / elapsed, nil
}

// runCodec measures the three payloads and runs the cluster equivalence
// gate, writing BENCH_codec.json with -benchout.
func runCodec(env *experiments.Env, scaleName, outPath string, base config.Params) error {
	users, items := env.W.Consumers(), env.W.Items()
	stripeSize := (users + 7) / 8
	report := CodecReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scaleName,
		Users:       users,
		Items:       items,
		Entries:     env.W.Entries(),
		Go:          runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		StripeSize:  stripeSize,
	}

	// --- matrix: the upload payload ------------------------------------
	doc := bundling.NewMatrixDoc(env.W)
	jsonMatrix, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	binMatrix, err := doc.MarshalBinary()
	if err != nil {
		return err
	}
	var rt bundling.MatrixDoc
	if err := rt.UnmarshalBinary(binMatrix); err != nil {
		return fmt.Errorf("matrix round-trip: %w", err)
	}
	if rt.Consumers != doc.Consumers || rt.Items != doc.Items || len(rt.Entries) != len(doc.Entries) {
		return fmt.Errorf("matrix round-trip changed shape: %d×%d/%d vs %d×%d/%d",
			rt.Consumers, rt.Items, len(rt.Entries), doc.Consumers, doc.Items, len(doc.Entries))
	}
	for i := range rt.Entries {
		if rt.Entries[i] != doc.Entries[i] {
			return fmt.Errorf("matrix round-trip entry %d: %v != %v (must be bit-identical)", i, rt.Entries[i], doc.Entries[i])
		}
	}
	encM, err := throughput(len(binMatrix), func() error { _, err := doc.MarshalBinary(); return err })
	if err != nil {
		return err
	}
	decM, err := throughput(len(binMatrix), func() error {
		var d bundling.MatrixDoc
		return d.UnmarshalBinary(binMatrix)
	})
	if err != nil {
		return err
	}
	report.Payloads = append(report.Payloads, CodecPayload{
		Name: "matrix", JSONBytes: len(jsonMatrix), BinBytes: len(binMatrix),
		BinOverJSON:  float64(len(binMatrix)) / float64(len(jsonMatrix)),
		EncodeMBPerS: encM, DecodeMBPerS: decM,
	})
	fmt.Println("codec: matrix payload measured")

	// --- span: the cluster feed payload --------------------------------
	sh, err := env.W.Shard(stripeSize)
	if err != nil {
		return err
	}
	span := sh.Span(0, sh.Stripes())
	jsonSpan, err := json.Marshal(cluster.AssignRequest{Corpus: "bench", Span: span})
	if err != nil {
		return err
	}
	binSpan := codec.EncodeAssign("bench", span)
	if _, rtSpan, err := codec.DecodeAssign(binSpan); err != nil {
		return fmt.Errorf("span round-trip: %w", err)
	} else if _, err := rtSpan.Store(); err != nil {
		return fmt.Errorf("span round-trip store: %w", err)
	}
	encS, err := throughput(len(binSpan), func() error { codec.EncodeAssign("bench", span); return nil })
	if err != nil {
		return err
	}
	decS, err := throughput(len(binSpan), func() error { _, _, err := codec.DecodeAssign(binSpan); return err })
	if err != nil {
		return err
	}
	spanPayload := CodecPayload{
		Name: "span", JSONBytes: len(jsonSpan), BinBytes: len(binSpan),
		BinOverJSON:  float64(len(binSpan)) / float64(len(jsonSpan)),
		EncodeMBPerS: encS, DecodeMBPerS: decS,
	}
	report.Payloads = append(report.Payloads, spanPayload)

	// --- record: the persisted corpus payload --------------------------
	opts := server.OptionsDoc{Strategy: "mixed", Theta: base.Theta}
	jsonRecord, err := json.Marshal(server.CorpusRecord{
		ID: "bench", Generation: 1, CreatedAt: time.Now().UTC(),
		Options: opts, Matrix: doc, Entries: env.W.Entries(),
	})
	if err != nil {
		return err
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return err
	}
	rec := &codec.Record{
		ID: "bench", Generation: 1, CreatedAt: time.Now().UTC(),
		OptionsJSON: optsJSON, Matrix: codec.MatrixData(*doc), Entries: env.W.Entries(),
	}
	binRecord, err := codec.EncodeRecord(rec)
	if err != nil {
		return err
	}
	rtRec, err := codec.DecodeRecord(binRecord)
	if err != nil {
		return fmt.Errorf("record round-trip: %w", err)
	}
	if rtRec.ID != rec.ID || !bytes.Equal(rtRec.OptionsJSON, rec.OptionsJSON) || len(rtRec.Matrix.Entries) != len(rec.Matrix.Entries) {
		return fmt.Errorf("record round-trip mismatch")
	}
	encR, err := throughput(len(binRecord), func() error { _, err := codec.EncodeRecord(rec); return err })
	if err != nil {
		return err
	}
	decR, err := throughput(len(binRecord), func() error { _, err := codec.DecodeRecord(binRecord); return err })
	if err != nil {
		return err
	}
	recPayload := CodecPayload{
		Name: "record", JSONBytes: len(jsonRecord), BinBytes: len(binRecord),
		BinOverJSON:  float64(len(binRecord)) / float64(len(jsonRecord)),
		EncodeMBPerS: encR, DecodeMBPerS: decR,
	}
	report.Payloads = append(report.Payloads, recPayload)

	// The acceptance gate: span feed and corpus record at or below half the
	// JSON bytes on this corpus.
	for _, p := range []CodecPayload{spanPayload, recPayload} {
		if p.BinOverJSON > 0.5 {
			return fmt.Errorf("%s payload is %.1f%% of JSON (%d/%d bytes); the codec must stay at or below 50%%",
				p.Name, p.BinOverJSON*100, p.BinBytes, p.JSONBytes)
		}
	}
	fmt.Println("codec: span + record payloads measured, size gate passed")

	// --- equivalence: every algorithm over a binary-fed HTTP fleet ------
	// The solve corpus is the full matrix when tractable, else a contiguous
	// consumer×item slice of it: every algorithm at paper scale prices
	// millions of candidate pairs (hours of CPU), while the codec path
	// under test — span encode, feed, worker decode, stripe kernels — is
	// identical at any size. The slice dimensions go into the report, so
	// the certificate states exactly what was proven.
	const maxEquivUsers, maxEquivItems = 2000, 600
	eqW := env.W
	if eqW.Consumers() > maxEquivUsers || eqW.Items() > maxEquivItems {
		sub := &bundling.MatrixDoc{Consumers: min(eqW.Consumers(), maxEquivUsers), Items: min(eqW.Items(), maxEquivItems)}
		for _, e := range doc.Entries {
			if int(e[0]) < sub.Consumers && int(e[1]) < sub.Items {
				sub.Entries = append(sub.Entries, e)
			}
		}
		if eqW, err = sub.Matrix(); err != nil {
			return fmt.Errorf("equivalence slice: %w", err)
		}
	}
	report.EquivUsers, report.EquivItems, report.EquivEntries = eqW.Consumers(), eqW.Items(), eqW.Entries()
	fmt.Printf("codec: equivalence corpus %d users × %d items, %d entries\n",
		report.EquivUsers, report.EquivItems, report.EquivEntries)
	wk0, wk1 := cluster.NewWorker(cluster.WorkerConfig{}), cluster.NewWorker(cluster.WorkerConfig{})
	ts0 := httptest.NewServer(wk0.Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(wk1.Handler())
	defer ts1.Close()
	transports, err := cluster.Transports(ts0.URL+","+ts1.URL, nil)
	if err != nil {
		return err
	}
	solverOpts := bundling.Options{
		Strategy:      bundling.Mixed,
		Theta:         base.Theta,
		MaxBundleSize: base.K,
		Parallelism:   base.Parallelism,
		StripeSize:    (eqW.Consumers() + 7) / 8,
	}
	local, err := bundling.NewSolver(eqW, solverOpts)
	if err != nil {
		return err
	}
	binBefore := cluster.FeedBytes()
	cs, err := cluster.NewSolver(eqW, solverOpts, cluster.Config{Workers: transports})
	if err != nil {
		return err
	}
	for _, alg := range bundling.Algorithms() {
		t0 := time.Now()
		want, err := local.Solve(alg)
		if err != nil {
			return fmt.Errorf("%s local: %w", alg.Name(), err)
		}
		tLocal := time.Since(t0)
		t0 = time.Now()
		got, err := cs.Solve(alg)
		if err != nil {
			return fmt.Errorf("%s binary-fed cluster: %w", alg.Name(), err)
		}
		diff := math.Abs(got.Revenue-want.Revenue) / (1 + math.Abs(want.Revenue))
		fmt.Printf("codec: %s local %.1fs, binary-fed cluster %.1fs, rel diff %.3g\n",
			alg.Name(), tLocal.Seconds(), time.Since(t0).Seconds(), diff)
		report.ClusterAlgos = append(report.ClusterAlgos, CodecAlgo{
			Algorithm: alg.Name(), Revenue: got.Revenue, RelDiff: diff,
		})
		if diff > report.MaxRelDiff {
			report.MaxRelDiff = diff
		}
	}
	if report.MaxRelDiff > 1e-9 {
		return fmt.Errorf("binary-fed cluster diverged: max relative diff %.3g > 1e-9", report.MaxRelDiff)
	}
	report.FeedBytesBin = cluster.FeedBytes() - binBefore
	if report.FeedBytesBin == 0 {
		return fmt.Errorf("cluster fed no binary span bytes")
	}

	fmt.Println("codec: binary vs JSON on this corpus")
	for _, p := range report.Payloads {
		fmt.Printf("  %-7s %9d B json  %9d B bin  (%.1f%%)  enc %.0f MB/s  dec %.0f MB/s\n",
			p.Name, p.JSONBytes, p.BinBytes, p.BinOverJSON*100, p.EncodeMBPerS, p.DecodeMBPerS)
	}
	fmt.Printf("  cluster equivalence: %d algorithms, max rel diff %.3g, %d binary feed bytes\n\n",
		len(report.ClusterAlgos), report.MaxRelDiff, report.FeedBytesBin)

	if outPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(buf, '\n'), 0o644)
}
