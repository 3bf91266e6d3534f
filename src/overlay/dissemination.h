// Shared state and bookkeeping for every file-dissemination protocol in this repo:
// file parameters, the local block map, completion detection, and metrics accounting.

#ifndef SRC_OVERLAY_DISSEMINATION_H_
#define SRC_OVERLAY_DISSEMINATION_H_

#include <cmath>
#include <memory>

#include "src/common/bitmap.h"
#include "src/common/sketch.h"
#include "src/overlay/protocol.h"
#include "src/overlay/streaming.h"

namespace bullet {

struct FileParams {
  int64_t block_bytes = 16 * 1024;  // the paper's transfer block size (Section 4.2)
  uint32_t num_blocks = 0;          // original file blocks n
  // Source-encoded (rateless) mode: the source emits a stream of distinct encoded
  // blocks; a receiver completes once it holds (1 + overhead) * n distinct blocks.
  bool encoded = false;
  static constexpr double kEncodingOverhead = 0.04;  // the paper's measured reception overhead
  // Encoded sources keep minting fresh blocks while receivers lag; this bounds the
  // id space (and thus bitmap sizes). Push-only systems (SplitStream) need headroom:
  // a subtree behind a slow interior link misses a share of every stripe and only
  // completes because the stream keeps going.
  static constexpr uint32_t kEncodedSpaceFactor = 8;

  int64_t file_bytes() const { return block_bytes * num_blocks; }
  // Size of the block-id space (encoded sources may emit beyond n).
  uint32_t BlockSpace() const { return encoded ? num_blocks * kEncodedSpaceFactor : num_blocks; }
  uint32_t DistinctNeeded() const {
    if (!encoded) {
      return num_blocks;
    }
    return static_cast<uint32_t>(std::ceil((1.0 + kEncodingOverhead) * num_blocks));
  }
};

class DisseminationProtocol : public Protocol {
 public:
  DisseminationProtocol(const Context& ctx, const FileParams& file, NodeId source)
      : Protocol(ctx), file_(file), source_(source), have_(file.BlockSpace()) {
    if (ctx.self == source && !file.encoded) {
      for (uint32_t b = 0; b < file.num_blocks; ++b) {
        have_.Set(b);
        sketch_.AddBlock(b);
      }
    }
  }

  bool complete() const {
    if (stream_ != nullptr) {
      // Streaming mode: done once every required position is held — an
      // encoded id space wraps onto positions, so distinct-block counting
      // does not apply.
      return self() == source_ || stream_->Complete();
    }
    return self() == source_ || have_.count() >= file_.DistinctNeeded();
  }
  const Bitmap& have() const { return have_; }
  const FileParams& file() const { return file_; }
  NodeId source() const { return source_; }
  bool is_source() const { return self() == source_; }

  // Switches this node into playback-deadline mode (SessionSpec::streaming).
  // Must be called before Start() — the protocol factory invokes it at the
  // member's join time, which anchors the late-joiner live-edge position.
  void ConfigureStreaming(const StreamingSpec& spec, SimTime session_start) {
    stream_ = std::make_unique<StreamPlayback>(spec, file_.num_blocks, file_.block_bytes,
                                               session_start, now());
    metrics().EnableStreaming(file_.num_blocks);
  }
  // Null in bulk mode.
  const StreamPlayback* stream() const { return stream_.get(); }

 protected:
  // Records an arriving block. Returns true if the block was new. Handles metrics
  // and completion recording. Completion is *session-scoped*: the metrics object
  // carries the session's receiver target and a harness-installed callback (see
  // RunMetrics::SetCompletionPolicy; WorkloadExperiment installs it on every
  // session) — this node finishing only ends the run if the workload layer
  // decides every session is done.
  bool AcceptBlock(uint32_t id, int64_t wire_bytes) {
    NodeMetrics& m = metrics().node(self());
    // Snapshot before mutating: the completing block must see was_complete=false.
    const bool was_complete = complete();
    if (!have_.Set(id)) {
      ++m.duplicate_blocks;
      m.dup_bytes_in += wire_bytes;
      return false;
    }
    sketch_.AddBlock(id);
    ++m.useful_blocks;
    m.data_bytes_in += wire_bytes;
    if (metrics().record_arrivals) {
      m.block_arrivals.push_back(now());
    }
    if (stream_ != nullptr && stream_->MarkHeld(stream_->PositionOf(id))) {
      metrics().RecordPositionArrival(self(), stream_->PositionOf(id), now());
    }
    if (!is_source() && !was_complete && complete()) {
      metrics().RecordCompletion(self(), now());
      OnFileComplete();
      metrics().NotifyIfAllComplete();
    }
    return true;
  }

  void AccountControlIn(int64_t bytes) { metrics().node(self()).ctrl_bytes_in += bytes; }
  void AccountControlOut(int64_t bytes) { metrics().node(self()).ctrl_bytes_out += bytes; }

  virtual void OnFileComplete() {}

  const AvailabilitySketch& sketch() const { return sketch_; }

  FileParams file_;
  NodeId source_;
  Bitmap have_;
  AvailabilitySketch sketch_;
  // Playback state when streaming mode is configured; null in bulk mode.
  std::unique_ptr<StreamPlayback> stream_;
};

}  // namespace bullet

#endif  // SRC_OVERLAY_DISSEMINATION_H_
