package synth

// Calibrated simulators of the paper's four evaluation datasets,
// matched to Table 1:
//
//	Parameter            Stocks   Demos    Crowd    Genomics
//	# Sources            34       522      102      2750
//	# Objects            907      3105     992      571
//	# Observations       30763    27736    19840    3052
//	# Domain Features    7        7        4        4
//	# Feature Values     70       341      171      16358
//	Avg. Src. Acc.       <0.5     0.604    0.540    (n/a)
//	Avg. Obs per Obj.    33.9     15.7     20       5.3
//	Avg. Obs per Src.    904.8    53.1     194.5    1.1
//
// The real data are proprietary or require offline downloads; the
// generators below reproduce the statistical structure (sparsity,
// domain sizes, heterogeneity, feature signal, copier cliques) so every
// experiment in Section 5 runs end-to-end.

// Stocks simulates the stock-volume fusion dataset [24]: 34 web
// sources, near-complete density (each source reports almost every
// stock-day), many-valued volume domains, and a mean source accuracy
// below 0.5 with strong heterogeneity (a few excellent feeds among
// noisy scrapers). 7 Alexa-style traffic features discretized to 70
// Boolean values, several of them genuinely predictive.
func Stocks(seed int64) (*Instance, error) {
	return Generate(Config{
		Name:       "stocks",
		Sources:    34,
		Objects:    907,
		DomainSize: 12,
		Assignment: IIDDensity,
		Density:    0.998,
		// Heavily heterogeneous with mean below 0.5 (Table 1).
		MeanAccuracy: 0.42,
		AccuracySD:   0.28,
		MinAccuracy:  0.05,
		MaxAccuracy:  0.98,
		WrongBias:    0.95, // scrapers repeat the same stale volume
		Features: []FeatureGroup{
			{Name: "BounceRate", Cardinality: 10, Informative: true, WeightScale: 2.2},
			{Name: "DailyTimeOnSite", Cardinality: 10, Informative: true, WeightScale: 1.8},
			{Name: "Rank", Cardinality: 10, Informative: false},
			{Name: "CountryRank", Cardinality: 10, Informative: false},
			{Name: "DailyPageViewsPerVisitor", Cardinality: 10, Informative: true, WeightScale: 1.0},
			{Name: "SearchVisits", Cardinality: 10, Informative: false},
			{Name: "TotalSitesLinkingIn", Cardinality: 10, Informative: false},
		},
		EnsureTruthObserved: true,
		Seed:                seed,
	})
}

// Demos simulates the GDELT demonstrations dataset: 522 online news
// domains, sparse boolean extraction-correctness objects, mean accuracy
// 0.604, with planted copier cliques (regional news portals that
// syndicate each other, per Appendix D's findings).
func Demos(seed int64) (*Instance, error) {
	return Generate(Config{
		Name:         "demos",
		Sources:      522,
		Objects:      3105,
		DomainSize:   2,
		Assignment:   SkewedSources,
		ObsPerObject: 6, // grows toward the Table 1 totals via copier overlap
		SourceSkew:   0.7,
		MeanAccuracy: 0.604,
		AccuracySD:   0.16,
		MinAccuracy:  0.2,
		MaxAccuracy:  0.95,
		Features: []FeatureGroup{
			{Name: "BounceRate", Cardinality: 49, Informative: true, WeightScale: 1.6},
			{Name: "DailyTimeOnSite", Cardinality: 49, Informative: true, WeightScale: 1.2},
			{Name: "Rank", Cardinality: 49, Informative: false},
			{Name: "CountryRank", Cardinality: 49, Informative: false},
			{Name: "DailyPageViewsPerVisitor", Cardinality: 49, Informative: true, WeightScale: 0.8},
			{Name: "SearchVisits", Cardinality: 48, Informative: false},
			{Name: "TotalSitesLinkingIn", Cardinality: 48, Informative: false},
		},
		Copying:             CopyConfig{Cliques: 30, Size: 6, CopyProb: 0.85, OverlapProb: 0.5},
		EnsureTruthObserved: true,
		Seed:                seed,
	})
}

// Crowd simulates the CrowdFlower weather-sentiment dataset: 102
// workers, 992 tweets, exactly 20 workers per tweet, 4-way sentiment
// domain, mean worker accuracy 0.54, with labor-channel and coverage
// features partially predictive of accuracy (Figure 9's finding).
func Crowd(seed int64) (*Instance, error) {
	return Generate(Config{
		Name:         "crowd",
		Sources:      102,
		Objects:      992,
		DomainSize:   4,
		Assignment:   FixedPerObject,
		ObsPerObject: 20,
		MeanAccuracy: 0.52,
		AccuracySD:   0.2,
		MinAccuracy:  0.1,
		MaxAccuracy:  0.97,
		WrongBias:    0.95, // sentiment classes are confusable
		Features: []FeatureGroup{
			{Name: "channel", Cardinality: 12, Informative: true, WeightScale: 2.0},
			{Name: "country", Cardinality: 24, Informative: false},
			{Name: "city", Cardinality: 125, Informative: false},
			{Name: "coverage", Cardinality: 10, Informative: true, WeightScale: 1.4},
		},
		EnsureTruthObserved: true,
		Seed:                seed,
	})
}

// Genomics simulates the GAD gene-disease association dataset from the
// paper's motivating example: 2750 articles, 571 conflicting
// gene-disease pairs, ~1.1 observations per article (extreme long-tail
// sparsity), boolean associations, and PubMed metadata features with a
// very large value vocabulary (journal, citations, year, authors).
func Genomics(seed int64) (*Instance, error) {
	return Generate(Config{
		Name:         "genomics",
		Sources:      2750,
		Objects:      571,
		DomainSize:   2,
		Assignment:   SkewedSources,
		ObsPerObject: 5, // ~5.3 observations per object
		SourceSkew:   0.35,
		MeanAccuracy: 0.62,
		AccuracySD:   0.15,
		MinAccuracy:  0.2,
		MaxAccuracy:  0.95,
		Features: []FeatureGroup{
			{Name: "journal", Cardinality: 300, Informative: true, WeightScale: 1.5},
			{Name: "citations", Cardinality: 12, Informative: true, WeightScale: 1.2},
			{Name: "pubyear", Cardinality: 30, Informative: false},
			// Author lists: multi-label with a huge vocabulary, the
			// bulk of Table 1's 16358 feature values.
			{Name: "author", Cardinality: 16016, Informative: false, PerSource: 4},
		},
		EnsureTruthObserved: true,
		Seed:                seed,
	})
}

// Example6 builds the synthetic instance of the paper's Example 6 /
// Figure 4: 1000 independent sources, 1000 objects, binary domain,
// configurable density and average accuracy, no domain features (the
// figure's EM and ERM are Sources-EM and Sources-ERM).
func Example6(avgAccuracy, density float64, seed int64) (*Instance, error) {
	return Generate(Config{
		Name:                "example6",
		Sources:             1000,
		Objects:             1000,
		DomainSize:          2,
		Assignment:          IIDDensity,
		Density:             density,
		MeanAccuracy:        avgAccuracy,
		AccuracySD:          0.15,
		MinAccuracy:         0.3,
		MaxAccuracy:         0.95,
		EnsureTruthObserved: true,
		Seed:                seed,
	})
}

// NamedDataset builds one of the four calibrated simulators by name
// ("stocks", "demos", "crowd", "genomics").
func NamedDataset(name string, seed int64) (*Instance, error) {
	switch name {
	case "stocks":
		return Stocks(seed)
	case "demos":
		return Demos(seed)
	case "crowd":
		return Crowd(seed)
	case "genomics":
		return Genomics(seed)
	}
	return nil, errUnknownDataset(name)
}

type errUnknownDataset string

func (e errUnknownDataset) Error() string {
	return "synth: unknown dataset " + string(e) + " (want stocks|demos|crowd|genomics)"
}

// AllNames lists the calibrated dataset names in the paper's order.
func AllNames() []string { return []string{"stocks", "demos", "crowd", "genomics"} }
