package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"

	"slimfast/internal/data"
	"slimfast/internal/randx"
	"slimfast/internal/stream"
	"slimfast/internal/synth"
)

// claimsPerRequest is the body size of every observe request: the
// batch a client that ships claims as they arrive would send.
const claimsPerRequest = 64

// claimStream is a generated serving workload: the claims in the order
// they are sent, the gold value of every object and the sources'
// feature labels.
type claimStream struct {
	claims   []stream.Triple
	objects  []string
	gold     map[string]string
	features map[string][]string
}

// streamConfig sizes a serving workload's synthetic population. The
// shape (400 sources, 8 claims per object, 4-value domains with a
// shared distractor value, heterogeneous accuracies) follows the
// paper's Table 1 simulators; objects sets the working set.
func streamConfig(seed int64, objects int) synth.Config {
	return synth.Config{
		Name:                "stream",
		Sources:             400,
		Objects:             objects,
		DomainSize:          4,
		Assignment:          synth.FixedPerObject,
		ObsPerObject:        8,
		MeanAccuracy:        0.62,
		AccuracySD:          0.16,
		MinAccuracy:         0.2,
		MaxAccuracy:         0.95,
		WrongBias:           0.6,
		EnsureTruthObserved: true,
		// Source accuracies follow the sources' domain features, as in
		// every Table 1 simulator. The server gets no feature table.
		Features: []synth.FeatureGroup{
			{Name: "tier", Cardinality: 50, Informative: true, WeightScale: 1.5},
			{Name: "region", Cardinality: 12, Informative: false},
		},
		Seed: seed,
	}
}

// revisionShare is the fraction of extra claims appended as a tail
// that re-asserts an earlier (source, object) pair with a new value,
// so the engine's claim-replacement (delta) path is exercised.
const revisionShare = 0.05

// genClaims builds the claim stream of the serving workloads.
func genClaims(seed int64, objects int) (*claimStream, error) {
	return genStream(streamConfig(seed, objects))
}

// genStream builds a claim stream from cfg: every object's claims are
// spread over the stream round by round (claim r of every object,
// objects in a seeded order, then claim r+1), followed by the revision
// tail.
func genStream(cfg synth.Config) (*claimStream, error) {
	in, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ds := in.Dataset
	cs := &claimStream{gold: make(map[string]string, len(in.Gold)), features: map[string][]string{}}
	for o, v := range in.Gold {
		cs.gold[ds.ObjectNames[o]] = ds.ValueNames[v]
	}
	for s, fs := range ds.SourceFeatures {
		for _, k := range fs {
			name := ds.SourceNames[s]
			cs.features[name] = append(cs.features[name], ds.FeatureNames[k])
		}
	}
	rng := randx.New(randx.DeriveSeed(cfg.Seed, "order"))
	order := rng.Shuffled(ds.NumObjects())
	rounds := 0
	for o := 0; o < ds.NumObjects(); o++ {
		cs.objects = append(cs.objects, ds.ObjectNames[o])
		rounds = max(rounds, len(ds.ObjectObservations(data.ObjectID(o))))
	}
	cs.claims = make([]stream.Triple, 0, int(float64(ds.NumObservations())*(1+revisionShare))+1)
	for r := 0; r < rounds; r++ {
		for _, o := range order {
			obs := ds.ObjectObservations(data.ObjectID(o))
			if r < len(obs) {
				ob := obs[r]
				cs.claims = append(cs.claims, stream.Triple{
					Source: ds.SourceNames[ob.Source], Object: ds.ObjectNames[ob.Object], Value: ds.ValueNames[ob.Value]})
			}
		}
	}
	main := len(cs.claims)
	nRev := int(revisionShare * float64(main))
	for _, i := range rng.SampleWithoutReplacement(main, nRev) {
		c := cs.claims[i]
		v := c.Value
		for v == c.Value {
			v = ds.ValueNames[rng.Intn(ds.NumValues())]
		}
		cs.claims = append(cs.claims, stream.Triple{Source: c.Source, Object: c.Object, Value: v})
	}
	return cs, nil
}

// ndjsonBody renders claims as an NDJSON observe body.
func ndjsonBody(claims []stream.Triple) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, c := range claims {
		_ = enc.Encode(struct {
			Source string `json:"source"`
			Object string `json:"object"`
			Value  string `json:"value"`
		}{c.Source, c.Object, c.Value})
	}
	return b.Bytes()
}

// csvBody renders claims in the `slimfast replay` CSV form.
func csvBody(claims []stream.Triple) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"source", "object", "value"})
	for _, c := range claims {
		_ = w.Write([]string{c.Source, c.Object, c.Value})
	}
	w.Flush()
	return b.Bytes()
}

// requests chunks claims into observe requests.
func requests(claims []stream.Triple) [][]stream.Triple {
	var out [][]stream.Triple
	for lo := 0; lo < len(claims); lo += claimsPerRequest {
		out = append(out, claims[lo:min(lo+claimsPerRequest, len(claims))])
	}
	return out
}

// estimatesAccuracy scores a plain estimates CSV (object,value,
// confidence) against gold: the share of gold objects whose estimate
// is the gold value. Objects missing from the export count as wrong.
func estimatesAccuracy(export []byte, gold map[string]string) (float64, error) {
	r := csv.NewReader(bytes.NewReader(export))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		return 0, fmt.Errorf("parsing estimates: %w", err)
	}
	if len(gold) == 0 {
		return 0, fmt.Errorf("no gold objects")
	}
	correct := 0
	for i, rec := range recs {
		if i == 0 || len(rec) < 2 {
			continue
		}
		if g, ok := gold[rec[0]]; ok && g == rec[1] {
			correct++
		}
	}
	return float64(correct) / float64(len(gold)), nil
}
