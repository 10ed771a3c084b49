// Work-unit payloads (ExperimentProfile::work_dir): one finished
// Table-3 row or Figure-5 setting of a run, which a rerun loads instead of
// recomputing. A payload starts with the run's configuration digest and
// the unit's slot, and numeric fields round-trip as raw bit patterns, so
// a resumed run's output is bit-identical to an uninterrupted one.
// run_table3 and run_figure5 wrap the payloads in a durable_io frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "eval/experiment.hpp"

namespace sma::eval {

std::string encode_t3_row(std::uint64_t digest, std::size_t slot,
                          const Table3Row& row);

/// Throws util::FrameError when the payload belongs to another digest or
/// slot, is truncated, holds an out-of-range count or unknown flag bits,
/// or has trailing bytes.
Table3Row decode_t3_row(const std::string& payload, std::uint64_t digest,
                        std::size_t slot);

std::string encode_f5_row(std::uint64_t digest, std::size_t slot,
                          const AblationRow& row);

/// Throws util::FrameError as decode_t3_row does.
AblationRow decode_f5_row(const std::string& payload, std::uint64_t digest,
                          std::size_t slot);

}  // namespace sma::eval
