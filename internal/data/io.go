package data

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// The on-disk formats:
//
//   - Observations CSV: header "source,object,value", one row per
//     observation.
//   - Features CSV: header "source,feature", one row per active
//     Boolean feature.
//   - Truth CSV: header "object,value", one row per labeled object.
//   - JSON: a single document with all three plus names, produced by
//     WriteJSON and cmd/datagen.

// WriteObservationsCSV writes Ω in the CSV exchange format.
func WriteObservationsCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "object", "value"}); err != nil {
		return err
	}
	for _, ob := range d.Observations {
		rec := []string{d.SourceNames[ob.Source], d.ObjectNames[ob.Object], d.ValueNames[ob.Value]}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFeaturesCSV writes the active source features.
func WriteFeaturesCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "feature"}); err != nil {
		return err
	}
	for s, fs := range d.SourceFeatures {
		for _, f := range fs {
			if err := cw.Write([]string{d.SourceNames[s], d.FeatureNames[f]}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTruthCSV writes a TruthMap in the CSV exchange format.
func WriteTruthCSV(w io.Writer, d *Dataset, truth TruthMap) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "value"}); err != nil {
		return err
	}
	// Deterministic order.
	for o := 0; o < d.NumObjects(); o++ {
		v, ok := truth[ObjectID(o)]
		if !ok {
			continue
		}
		if err := cw.Write([]string{d.ObjectNames[o], d.ValueNames[v]}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadObservationsCSV parses the observations CSV into a Builder. A
// malformed row is reported with its 1-based row number, as
// StreamObservationsCSV reports it.
func ReadObservationsCSV(r io.Reader, b *Builder) error {
	return StreamObservationsCSV(r, func(source, object, value string) error {
		b.ObserveNames(source, object, value)
		return nil
	})
}

// StreamObservationsCSV reads the observations CSV and invokes fn for
// every row without materializing a Dataset — the ingest path for
// stream processing, where claims are consumed one at a time and the
// full Ω never needs to exist in memory. The record slice is reused
// between reads, but the field strings are freshly allocated per row
// (encoding/csv backs each record's fields by one new string), so fn
// may retain them. Returning an error from fn stops the scan and
// propagates the error.
//
// Every failure — a malformed row or an fn rejection — is reported
// with its 1-based row number (the header row counts), so a bad line
// deep in a multi-gigabyte stream can actually be found.
func StreamObservationsCSV(r io.Reader, fn func(source, object, value string) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true
	header := true
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		row++
		if err != nil {
			return fmt.Errorf("data: observations csv row %d: %w", row, err)
		}
		if header {
			header = false
			if rec[0] == "source" {
				continue
			}
		}
		if err := fn(rec[0], rec[1], rec[2]); err != nil {
			return fmt.Errorf("data: observations csv row %d: %w", row, err)
		}
	}
}

// ReadFeaturesCSV parses the features CSV into a Builder. Sources named
// here but absent from the observations are created (with no
// observations), which is how Figure 7's "unseen sources" enter the
// system.
func ReadFeaturesCSV(r io.Reader, b *Builder) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("data: features csv: %w", err)
		}
		if header {
			header = false
			if rec[0] == "source" {
				continue
			}
		}
		b.SetFeature(b.Source(rec[0]), rec[1])
	}
}

// ReadSourceFeaturesCSV parses the features CSV ("source,feature",
// one row per active Boolean feature) into a name-keyed table — the
// form the streaming engine's Features option wants, with no Dataset
// in sight. Labels are deduplicated per source, first-seen order
// preserved; malformed rows are reported with their 1-based row
// number.
func ReadSourceFeaturesCSV(r io.Reader) (map[string][]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.ReuseRecord = true
	out := map[string][]string{}
	header := true
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		row++
		if err != nil {
			return nil, fmt.Errorf("data: features csv row %d: %w", row, err)
		}
		if header {
			header = false
			if rec[0] == "source" {
				continue
			}
		}
		source, label := rec[0], rec[1]
		if source == "" || label == "" {
			return nil, fmt.Errorf("data: features csv row %d: source and feature must be non-empty", row)
		}
		dup := false
		for _, have := range out[source] {
			if have == label {
				dup = true
				break
			}
		}
		if !dup {
			out[source] = append(out[source], label)
		}
	}
}

// ReadTruthCSV parses a truth CSV into a name-keyed table, object name
// to value name. It interns nothing: TruthFromNames resolves the names
// against the frozen dataset, skipping unobserved objects.
func ReadTruthCSV(r io.Reader) (map[string]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	out := map[string]string{}
	header := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("data: truth csv: %w", err)
		}
		if header {
			header = false
			if rec[0] == "object" {
				continue
			}
		}
		out[rec[0]] = rec[1]
	}
}

// TruthFromNames converts a name-keyed truth table into a TruthMap
// against a frozen dataset. Unknown object names are skipped; unknown
// value names are an error (they indicate a label for a value no source
// ever asserted, violating the paper's single-truth assumption that at
// least one source provides the correct value).
func TruthFromNames(d *Dataset, names map[string]string) (TruthMap, error) {
	objIdx := make(map[string]ObjectID, d.NumObjects())
	for i, n := range d.ObjectNames {
		objIdx[n] = ObjectID(i)
	}
	valIdx := make(map[string]ValueID, d.NumValues())
	for i, n := range d.ValueNames {
		valIdx[n] = ValueID(i)
	}
	tm := make(TruthMap, len(names))
	for on, vn := range names {
		o, ok := objIdx[on]
		if !ok {
			continue
		}
		v, ok := valIdx[vn]
		if !ok {
			return nil, fmt.Errorf("data: truth value %q for object %q never observed", vn, on)
		}
		tm[o] = v
	}
	return tm, nil
}

// jsonDataset is the JSON exchange schema.
type jsonDataset struct {
	Name         string            `json:"name"`
	Sources      []string          `json:"sources"`
	Objects      []string          `json:"objects"`
	Values       []string          `json:"values"`
	Features     []string          `json:"features"`
	Observations [][3]int          `json:"observations"` // [source, object, value]
	SourceFeats  [][]int           `json:"source_features"`
	Truth        map[string]string `json:"truth,omitempty"`
}

// WriteJSON serializes the dataset (and optional truth) as one JSON
// document.
func WriteJSON(w io.Writer, d *Dataset, truth TruthMap) error {
	jd := jsonDataset{
		Name:     d.Name,
		Sources:  d.SourceNames,
		Objects:  d.ObjectNames,
		Values:   d.ValueNames,
		Features: d.FeatureNames,
	}
	jd.Observations = make([][3]int, len(d.Observations))
	for i, ob := range d.Observations {
		jd.Observations[i] = [3]int{int(ob.Source), int(ob.Object), int(ob.Value)}
	}
	jd.SourceFeats = make([][]int, len(d.SourceFeatures))
	for s, fs := range d.SourceFeatures {
		row := make([]int, len(fs))
		for i, f := range fs {
			row[i] = int(f)
		}
		jd.SourceFeats[s] = row
	}
	if truth != nil {
		jd.Truth = map[string]string{}
		for o, v := range truth {
			jd.Truth[d.ObjectNames[o]] = d.ValueNames[v]
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jd)
}

// ReadJSON deserializes a dataset written by WriteJSON and returns the
// frozen Dataset with its truth map (nil when absent).
func ReadJSON(r io.Reader) (*Dataset, TruthMap, error) {
	var jd jsonDataset
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, nil, fmt.Errorf("data: json decode: %w", err)
	}
	b := NewBuilder(jd.Name)
	for _, n := range jd.Sources {
		b.Source(n)
	}
	for _, n := range jd.Objects {
		b.Object(n)
	}
	for _, n := range jd.Values {
		b.Value(n)
	}
	for _, n := range jd.Features {
		b.Feature(n)
	}
	for i, ob := range jd.Observations {
		if ob[0] < 0 || ob[0] >= len(jd.Sources) || ob[1] < 0 || ob[1] >= len(jd.Objects) || ob[2] < 0 || ob[2] >= len(jd.Values) {
			return nil, nil, fmt.Errorf("data: json observation %d out of range: %v", i, ob)
		}
		b.Observe(SourceID(ob[0]), ObjectID(ob[1]), ValueID(ob[2]))
	}
	for s, fs := range jd.SourceFeats {
		if s >= len(jd.Sources) {
			return nil, nil, fmt.Errorf("data: json source_features longer than sources")
		}
		for _, f := range fs {
			if f < 0 || f >= len(jd.Features) {
				return nil, nil, fmt.Errorf("data: json feature %d out of range for source %d", f, s)
			}
			b.SetFeature(SourceID(s), jd.Features[f])
		}
	}
	d := b.Freeze()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if jd.Truth == nil {
		return d, nil, nil
	}
	tm, err := TruthFromNames(d, jd.Truth)
	if err != nil {
		return nil, nil, err
	}
	return d, tm, nil
}
