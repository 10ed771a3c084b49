#include "eval/work_unit.hpp"

#include <limits>

#include "util/durable_io.hpp"

namespace sma::eval {

std::string encode_t3_row(std::uint64_t digest, std::size_t slot,
                          const Table3Row& row) {
  util::ByteWriter out;
  out.u64(digest)
      .u64(slot)
      .blob(row.design)
      .u64(static_cast<std::uint64_t>(row.num_sink_fragments))
      .u64(static_cast<std::uint64_t>(row.num_source_fragments))
      .u64((row.flow_timed_out ? 1u : 0u) | (row.scaled_down ? 2u : 0u))
      .f64(row.flow_ccr)
      .f64(row.flow_seconds)
      .f64(row.dl_ccr)
      .f64(row.dl_seconds)
      .f64(row.hit_rate);
  return out.take();
}

Table3Row decode_t3_row(const std::string& payload, std::uint64_t digest,
                        std::size_t slot) {
  util::ByteReader in(payload, "work unit");
  if (in.u64("digest") != digest || in.u64("slot") != slot) {
    throw util::FrameError("work unit belongs to a different run or slot");
  }
  Table3Row row;
  row.design = in.blob("design name");
  // Fragment counts are stored in an `int`.
  constexpr auto kMaxCount =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  row.num_sink_fragments =
      static_cast<int>(in.u64_at_most(kMaxCount, "sink count"));
  row.num_source_fragments =
      static_cast<int>(in.u64_at_most(kMaxCount, "source count"));
  const std::uint64_t flags = in.u64("flags");
  if ((flags & ~std::uint64_t{3}) != 0) {
    throw util::FrameError("work unit has unknown flag bits");
  }
  row.flow_timed_out = (flags & 1u) != 0;
  row.scaled_down = (flags & 2u) != 0;
  row.flow_ccr = in.f64("flow ccr");
  row.flow_seconds = in.f64("flow seconds");
  row.dl_ccr = in.f64("dl ccr");
  row.dl_seconds = in.f64("dl seconds");
  row.hit_rate = in.f64("hit rate");
  in.expect_end();
  return row;
}

std::string encode_f5_row(std::uint64_t digest, std::size_t slot,
                          const AblationRow& row) {
  util::ByteWriter out;
  out.u64(digest)
      .u64(slot)
      .blob(row.setting)
      .f64(row.avg_ccr)
      .f64(row.avg_inference_seconds);
  return out.take();
}

AblationRow decode_f5_row(const std::string& payload, std::uint64_t digest,
                          std::size_t slot) {
  util::ByteReader in(payload, "work unit");
  if (in.u64("digest") != digest || in.u64("slot") != slot) {
    throw util::FrameError("work unit belongs to a different run or slot");
  }
  AblationRow row;
  row.setting = in.blob("setting name");
  row.avg_ccr = in.f64("avg ccr");
  row.avg_inference_seconds = in.f64("avg inference seconds");
  in.expect_end();
  return row;
}

}  // namespace sma::eval
