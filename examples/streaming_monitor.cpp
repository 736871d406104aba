// Streaming contrast monitoring — §I's "real-time story identification"
// scenario on a live keyword-association stream.
//
// A streaming MinerSession receives co-occurrence weight updates (G1 = the
// historical association strengths, G2 = the live window) and is queried
// after every batch; warm_start seeds each query from the previous story so
// drift is tracked cheaply. Watch the affinity DCS lock onto a breaking
// story as its keyword clique builds up, then fade as the story is absorbed
// into the baseline.
//
// Run:  ./build/examples/streaming_monitor [seed]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/datasets.h"
#include "api/miner_session.h"
#include "api/mining.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dcs;
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 99;
  Rng rng(seed);

  const VertexId kVocabulary = 400;
  const std::vector<std::string> story_words{"earthquake", "coast", "tsunami",
                                             "warning"};
  const VertexId story_base = kVocabulary;  // ids 400..403
  Result<MinerSession> monitor = MinerSession::CreateStreaming(kVocabulary + 4);
  if (!monitor.ok()) return 1;

  // Historical baseline: background keyword chatter, mirrored into the live
  // window at roughly the same strength (so the contrast starts flat).
  Result<Graph> chatter = ErdosRenyiWeighted(kVocabulary, 0.02, 0.2, 1.5, &rng);
  if (!chatter.ok()) return 1;
  for (const Edge& e : chatter->UndirectedEdges()) {
    if (!monitor->ApplyUpdate(UpdateSide::kG1, e.u, e.v, e.weight).ok() ||
        !monitor
             ->ApplyUpdate(UpdateSide::kG2, e.u, e.v,
                           e.weight + rng.Uniform(-0.1, 0.1))
             .ok()) {
      return 1;
    }
  }

  MiningRequest query;
  query.measure = Measure::kGraphAffinity;
  query.warm_start = true;  // re-seed from the previous tick's story

  std::printf("tick | story pair-weight | DCS affinity | DCS keywords\n");
  std::printf("-----|-------------------|--------------|-------------\n");
  for (int tick = 1; tick <= 8; ++tick) {
    // Ticks 2-5: the story breaks — its keywords co-occur harder each tick.
    // Ticks 6-8: the story also enters the historical baseline (absorbed).
    if (tick >= 2 && tick <= 5) {
      for (VertexId i = 0; i < 4; ++i) {
        for (VertexId j = i + 1; j < 4; ++j) {
          if (!monitor
                   ->ApplyUpdate(UpdateSide::kG2, story_base + i,
                                 story_base + j, 1.5)
                   .ok()) {
            return 1;
          }
        }
      }
    }
    if (tick >= 6) {
      for (VertexId i = 0; i < 4; ++i) {
        for (VertexId j = i + 1; j < 4; ++j) {
          if (!monitor
                   ->ApplyUpdate(UpdateSide::kG1, story_base + i,
                                 story_base + j, 2.0)
                   .ok()) {
            return 1;
          }
        }
      }
    }

    Result<MiningResponse> response = monitor->Mine(query);
    if (!response.ok()) return 1;
    double story_weight = 0.0;
    {
      Result<Graph> gd = monitor->DifferenceSnapshot();
      if (!gd.ok()) return 1;
      story_weight = gd->EdgeWeight(story_base, story_base + 1);
    }
    double affinity = 0.0;
    std::string keywords = "(none)";
    if (!response->graph_affinity.empty()) {
      const RankedSubgraph& story = response->graph_affinity.front();
      affinity = story.value;
      keywords.clear();
      for (VertexId v : story.vertices) {
        if (!keywords.empty()) keywords += " ";
        keywords += v >= story_base ? story_words[v - story_base]
                                    : "kw" + std::to_string(v);
      }
    }
    std::printf("%4d | %17.2f | %12.3f | %s\n", tick, story_weight, affinity,
                keywords.c_str());
  }
  std::printf(
      "\nupdates applied: %llu, difference rebuilds: %llu, patched flushes: "
      "%llu (every batch, the bulk load included, is spliced into the "
      "graphs; the difference is built once and each later tick patches the "
      "cached pipeline and republishes it)\n",
      static_cast<unsigned long long>(monitor->num_updates()),
      static_cast<unsigned long long>(monitor->num_rebuilds()),
      static_cast<unsigned long long>(monitor->num_update_patches()));
  return 0;
}
