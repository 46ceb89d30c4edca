#include "obs/request_trace.h"

#include "obs/json_writer.h"

namespace subrec::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQueue:
      return "queue";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kCandidates:
      return "candidates";
    case Stage::kScore:
      return "score";
    case Stage::kSelect:
      return "select";
    case Stage::kCacheInsert:
      return "cache_insert";
    case Stage::kScoreGemm:
      return "score_gemm";
    case Stage::kScoreEpilogue:
      return "score_epilogue";
    case Stage::kNumStages:
      break;
  }
  return "unknown";
}

void RequestTrace::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("id").Int(id);
  w->Key("user").Int(user);
  w->Key("n").Int(n);
  w->Key("generation").Int(static_cast<int64_t>(generation));
  w->Key("start_ns").Int(start_ns);
  w->Key("total_us").Number(static_cast<double>(total_ns) / 1e3);
  w->Key("candidate_count").Int(candidate_count);
  w->Key("result_count").Int(result_count);
  w->Key("cache_hit").Bool(cache_hit);
  w->Key("error").Bool(error);
  w->Key("shed").Bool(shed);
  if (candidate_source != nullptr) {
    w->Key("candidate_source").String(candidate_source);
  }
  w->Key("stages_us").BeginObject();
  for (int s = 0; s < kNumStages; ++s) {
    if (stage_ns[s] == 0) continue;
    w->Key(StageName(static_cast<Stage>(s)))
        .Number(static_cast<double>(stage_ns[s]) / 1e3);
  }
  w->EndObject();
  w->EndObject();
}

}  // namespace subrec::obs
