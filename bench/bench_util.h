// Shared dataset roster for the benchmark harness.
//
// Rebuilds the paper's Table II roster from the synthetic generators (each
// gen/ header documents its substitution for the unavailable real dataset),
// scaled so the entire harness runs in minutes on a laptop. Every bench
// prints the seed it used; all datasets are deterministic functions of that
// seed.

#ifndef DCS_BENCH_BENCH_UTIL_H_
#define DCS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gen/coauthor.h"
#include "gen/interest_social.h"
#include "gen/keywords.h"
#include "gen/random_graphs.h"
#include "gen/signed_pair.h"
#include "graph/difference.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dcs::bench {

/// One difference graph of the Table II roster.
struct BenchDataset {
  std::string data;     ///< "DBLP", "DM", "Wiki", "Movie", "Book", ...
  std::string setting;  ///< "Weighted", "Discrete" or "—"
  std::string gd_type;  ///< "Emerging", "Conflicting", ...
  Graph gd;

  std::string Label() const {
    return data + " / " + setting + " / " + gd_type;
  }
};

inline Graph MustDiff(const Graph& g1, const Graph& g2) {
  Result<Graph> gd = BuildDifferenceGraph(g1, g2);
  DCS_CHECK(gd.ok()) << gd.status().ToString();
  return std::move(gd).value();
}

inline Graph MustDiscretize(const Graph& gd, const DiscretizeSpec& spec = {}) {
  Result<Graph> out = DiscretizeWeights(gd, spec);
  DCS_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

/// The DBLP-analog co-author data used by several benches.
inline CoauthorData MakeDblpAnalog(uint64_t seed, VertexId num_authors = 4000) {
  Rng rng(seed);
  CoauthorConfig config;
  config.num_authors = num_authors;
  config.emerging_sizes = {4, 7};      // UTA ML / CMU Privacy analogs
  config.disappearing_sizes = {6, 2, 8};  // Japan Robotics 1–3 analogs
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// The DM-analog keyword data.
inline KeywordData MakeDmAnalog(uint64_t seed) {
  Rng rng(seed);
  KeywordConfig config;
  config.noise_vocabulary = 1200;
  config.titles_per_era = 15'000;
  Result<KeywordData> data = GenerateKeywordData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// The wikiconflict-analog signed interaction pair.
inline SignedPairData MakeWikiAnalog(uint64_t seed) {
  Rng rng(seed);
  SignedPairConfig config;
  config.num_editors = 6000;
  config.consistent_size = 120;
  config.conflicting_size = 80;
  Result<SignedPairData> data = GenerateSignedPairData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// The Douban-analog interest/social pairs.
inline InterestSocialData MakeDoubanAnalog(uint64_t seed, bool movie) {
  Rng rng(seed);
  InterestSocialConfig config = movie ? MovieLikeConfig() : BookLikeConfig();
  config.num_users = 5000;
  config.num_clusters = 60;
  config.cluster_size = 40;
  Result<InterestSocialData> data = GenerateInterestSocialData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// The DBLP-C analog: a larger two-era co-author network.
inline CoauthorData MakeDblpCAnalog(uint64_t seed) {
  return MakeDblpAnalog(seed + 17, /*num_authors=*/12'000);
}

/// The Actor analog: a single heavy collaboration network used directly as
/// the difference graph (all weights positive), per §B-3. Planted structure
/// mirrors what drives the paper's Table XIV row: one extreme co-star pair
/// (weight ≈ 216, the paper's max) that dominates the Weighted setting, and
/// ensemble-cast cliques that win once weights are clamped at 10 in the
/// Discrete setting.
inline Graph MakeActorAnalog(uint64_t seed) {
  Rng rng(seed);
  ChungLuParams params;
  params.n = 10'000;
  params.average_degree = 24.0;
  params.exponent = 2.1;
  params.weight_geometric_p = 0.35;  // heavy-tailed collaboration counts
  Result<Graph> backbone = ChungLu(params, &rng);
  DCS_CHECK(backbone.ok()) << backbone.status().ToString();
  GraphBuilder builder(params.n);
  for (const Edge& e : backbone->UndirectedEdges()) {
    DCS_CHECK(builder.AddEdge(e.u, e.v, e.weight).ok());
  }
  // The legendary duo.
  std::vector<uint32_t> reserved =
      rng.SampleWithoutReplacement(params.n, 2 + 21 + 17 + 14 + 12);
  size_t cursor = 0;
  DCS_CHECK(builder.AddEdge(reserved[0], reserved[1], 216.0).ok());
  cursor += 2;
  // Ensemble casts: near-uniform collaboration counts around 7.
  for (uint32_t size : {21u, 17u, 14u, 12u}) {
    std::vector<VertexId> cast(reserved.begin() + cursor,
                               reserved.begin() + cursor + size);
    cursor += size;
    DCS_CHECK(AddCliqueUniform(&builder, cast, 6.0, 8.0, &rng).ok());
  }
  Result<Graph> g = builder.Build();
  DCS_CHECK(g.ok());
  return std::move(g).value();
}

/// Builds the full Table II roster. `include_large` adds the DBLP-C and
/// Actor rows (used by the stats and runtime benches; skipped by benches
/// that only need the small datasets).
inline std::vector<BenchDataset> BuildBenchDatasets(uint64_t seed,
                                                    bool include_large) {
  std::vector<BenchDataset> out;
  {
    const CoauthorData dblp = MakeDblpAnalog(seed);
    const Graph emerging = MustDiff(dblp.g1, dblp.g2);
    const Graph disappearing = MustDiff(dblp.g2, dblp.g1);
    out.push_back({"DBLP", "Weighted", "Emerging", emerging});
    out.push_back({"DBLP", "Weighted", "Disappearing", disappearing});
    DiscretizeSpec spec;  // paper's DBLP thresholds
    out.push_back({"DBLP", "Discrete", "Emerging", MustDiscretize(emerging, spec)});
    out.push_back(
        {"DBLP", "Discrete", "Disappearing", MustDiscretize(disappearing, spec)});
  }
  {
    const KeywordData dm = MakeDmAnalog(seed + 1);
    out.push_back({"DM", "—", "Emerging", MustDiff(dm.g1, dm.g2)});
    out.push_back({"DM", "—", "Disappearing", MustDiff(dm.g2, dm.g1)});
  }
  {
    const SignedPairData wiki = MakeWikiAnalog(seed + 2);
    out.push_back({"Wiki", "—", "Consistent",
                   MustDiff(wiki.negative, wiki.positive)});
    out.push_back({"Wiki", "—", "Conflicting",
                   MustDiff(wiki.positive, wiki.negative)});
  }
  for (const bool movie : {true, false}) {
    const InterestSocialData douban = MakeDoubanAnalog(seed + 3, movie);
    const char* name = movie ? "Movie" : "Book";
    out.push_back({name, "—", "Interest-Social",
                   MustDiff(douban.social, douban.interest)});
    out.push_back({name, "—", "Social-Interest",
                   MustDiff(douban.interest, douban.social)});
  }
  if (include_large) {
    {
      const CoauthorData dblp_c = MakeDblpCAnalog(seed + 4);
      const Graph gd = MustDiff(dblp_c.g1, dblp_c.g2);
      out.push_back({"DBLP-C", "Weighted", "—", gd});
      out.push_back({"DBLP-C", "Discrete", "—", MustDiscretize(gd)});
    }
    {
      const Graph actor = MakeActorAnalog(seed + 5);
      out.push_back({"Actor", "Weighted", "—", actor});
      out.push_back({"Actor", "Discrete", "—", actor.WeightsClampedAbove(10.0)});
    }
  }
  return out;
}

}  // namespace dcs::bench

#endif  // DCS_BENCH_BENCH_UTIL_H_
