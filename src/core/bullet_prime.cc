#include "src/core/bullet_prime.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/overlay/protocol_registry.h"

namespace bullet {

namespace {
// Senders that joined mid-epoch are excluded from trimming: their byte counts cover
// only part of the measurement window.
bool FullEpoch(SimTime connected_at, SimTime epoch_start) { return connected_at <= epoch_start; }
}  // namespace

BulletPrime::BulletPrime(const Context& ctx, const FileParams& file, NodeId source,
                         const ControlTree* tree, const BulletPrimeConfig& config)
    : TreeOverlayProtocol(ctx, file, source, tree, RanSubAgent::Config{}),
      config_(config),
      senders_(ctx.net->arena_counter()),
      is_requested_(file.BlockSpace(), 0),
      rarity_(file.BlockSpace(), 0),
      receivers_(ctx.net->arena_counter()) {
  max_senders_ = config_.initial_senders;
  max_receivers_ = config_.initial_receivers;
  sender_adapt_.max_peers = max_senders_;
  receiver_adapt_.max_peers = max_receivers_;
}

void BulletPrime::Start() {
  TreeOverlayProtocol::Start();
  if (is_source()) {
    push_scheduled_ = true;
    // Give children a moment to establish their tree connections.
    queue().ScheduleAfter(SecToSim(1.0), [this] { SourcePushTick(); });
  } else if (stream() != nullptr) {
    // Streaming mode: the sliding window opens as positions are played and as
    // the source releases new ones — neither necessarily coincides with an
    // arrival from the sender holding the block, so re-issue periodically.
    queue().ScheduleAfter(stream()->block_duration(), [this] { StreamRequestTick(); });
  }
}

void BulletPrime::StreamRequestTick() {
  if (complete() || net().queue().stopped()) {
    return;
  }
  for (auto& [conn, s] : senders_) {
    IssueRequests(s);
  }
  queue().ScheduleAfter(stream()->block_duration(), [this] { StreamRequestTick(); });
}

int BulletPrime::num_senders() const {
  int n = 0;
  for (const auto& [conn, s] : senders_) {
    if (s.active) {
      ++n;
    }
  }
  return n;
}

int BulletPrime::outstanding_to(NodeId sender) const {
  for (const auto& [conn, s] : senders_) {
    if (s.node == sender) {
      return s.outstanding;
    }
  }
  return -1;
}

std::vector<BulletPrime::SenderDebug> BulletPrime::DebugSenders() const {
  std::vector<SenderDebug> out;
  for (const auto& [conn, s] : senders_) {
    SenderDebug d;
    d.node = s.node;
    d.active = s.active;
    d.has_count = s.has.count();
    d.raw_candidates = s.candidates.RawSize();
    for (const uint32_t id : s.has.SetBits()) {
      if (!have_.Test(id) && is_requested_[id] == 0) {
        ++d.valid_candidates;
      }
    }
    d.outstanding = s.outstanding;
    d.desired = s.desired;
    d.diff_request_inflight = s.diff_request_inflight;
    out.push_back(d);
  }
  return out;
}

double BulletPrime::desired_outstanding(NodeId sender) const {
  for (const auto& [conn, s] : senders_) {
    if (s.node == sender) {
      return s.desired;
    }
  }
  return -1.0;
}

PeerSummary BulletPrime::MakeSummary() {
  PeerSummary s = TreeOverlayProtocol::MakeSummary();
  if (is_source() && !push_done_) {
    // The source only advertises itself once every block has been sent into the
    // overlay at least once (Section 3.3.5).
    s.block_count = 0;
    s.sketch_bits = 0;
  }
  s.incoming_mbps = static_cast<float>(incoming_total_Bps_.value() * 8.0 / 1e6);
  return s;
}

// ---------------------------------------------------------------------------
// Source push (Section 3.3.5)
// ---------------------------------------------------------------------------

void BulletPrime::SourcePushTick() {
  const auto& kids = tree_children();
  const uint32_t total = file_.encoded ? file_.BlockSpace() : file_.num_blocks;
  // Streaming mode: the source releases blocks at the stream bitrate (the live
  // edge) instead of blasting the whole file as fast as children drain.
  const uint32_t released =
      stream_ == nullptr
          ? total
          : static_cast<uint32_t>(std::min<uint64_t>(total, stream_->BlocksReleasable(now())));
  if (!kids.empty()) {
    while (next_push_block_ < released) {
      bool sent = false;
      const size_t start = config_.source_random_push
                               ? static_cast<size_t>(rng().UniformInt(
                                     0, static_cast<int64_t>(kids.size()) - 1))
                               : next_push_child_;
      for (size_t i = 0; i < kids.size(); ++i) {
        const size_t idx = (start + i) % kids.size();
        const ConnId conn = ChildConn(kids[idx]);
        if (conn < 0) {
          continue;
        }
        // Never force a block on a busy child; try the next one round-robin.
        if (net().QueuedBytes(conn, self()) >=
            config_.source_child_queue_blocks * file_.block_bytes) {
          continue;
        }
        auto msg = std::make_unique<bp::BlockMsg>();
        msg->block_id = next_push_block_;
        msg->pushed = true;
        msg->Finalize(file_.block_bytes);
        net().Send(conn, self(), std::move(msg));
        if (file_.encoded) {
          // Encoded mode: the source mints fresh encoded blocks as it goes.
          have_.Set(next_push_block_);
          sketch_.AddBlock(next_push_block_);
        }
        next_push_child_ = (idx + 1) % kids.size();
        ++next_push_block_;
        sent = true;
        break;
      }
      if (!sent) {
        break;
      }
      if (!push_done_ && next_push_block_ >= file_.num_blocks) {
        push_done_ = true;  // One full pass done; start advertising in RanSub.
      }
    }
  }
  if (next_push_block_ < total) {
    queue().ScheduleAfter(config_.source_push_retry, [this] { SourcePushTick(); });
  } else {
    push_done_ = true;
    push_scheduled_ = false;
  }
}

// ---------------------------------------------------------------------------
// RanSub epochs: peer-set management (Section 3.3.1)
// ---------------------------------------------------------------------------

void BulletPrime::OnRanSubEpoch(const std::vector<PeerSummary>& subset) {
  const double epoch_sec = std::max(SimToSec(now() - last_epoch_at_), 0.5);

  int64_t in_bytes = 0;
  for (const auto& [conn, s] : senders_) {
    in_bytes += s.epoch_bytes;
  }
  incoming_total_Bps_.Add(static_cast<double>(in_bytes) / epoch_sec);

  if (!is_source() && !complete()) {
    ManageSenderSet(epoch_sec, subset);
  }
  ManageReceiverSet(epoch_sec);

  for (auto& [conn, s] : senders_) {
    s.epoch_bytes = 0;
  }
  for (auto& [conn, r] : receivers_) {
    r.epoch_bytes = 0;
  }
  last_epoch_at_ = now();
}

void BulletPrime::ManageSenderSet(double epoch_sec, const std::vector<PeerSummary>& subset) {
  const double in_bps = [&] {
    int64_t bytes = 0;
    for (const auto& [conn, s] : senders_) {
      bytes += s.epoch_bytes;
    }
    return static_cast<double>(bytes) * 8.0 / epoch_sec;
  }();

  if (config_.dynamic_peer_sets) {
    max_senders_ =
        ManageMaxPeers(sender_adapt_, num_senders(), in_bps, config_.min_peers, config_.max_peers);

    // 1.5-sigma trim on bandwidth received per sender.
    std::vector<ConnId> trim_conns;
    std::vector<double> metric;
    for (const auto& [conn, s] : senders_) {
      if (s.active && FullEpoch(s.connected_at, last_epoch_at_)) {
        trim_conns.push_back(conn);
        metric.push_back(static_cast<double>(s.epoch_bytes));
      }
    }
    for (const size_t i :
         TrimIndices(metric, config_.trim_stddevs, static_cast<size_t>(config_.min_peers))) {
      auto it = senders_.find(trim_conns[i]);
      if (it != senders_.end()) {
        DisconnectSender(it->first, it->second);
      }
    }

    // If the hill-climber lowered MAX below the current set size, shed the slowest.
    while (num_senders() > max_senders_ && num_senders() > config_.min_peers) {
      ConnId worst = -1;
      int64_t worst_bytes = INT64_MAX;
      for (const auto& [conn, s] : senders_) {
        if (s.active && s.epoch_bytes < worst_bytes) {
          worst_bytes = s.epoch_bytes;
          worst = conn;
        }
      }
      if (worst < 0) {
        break;
      }
      auto it = senders_.find(worst);
      DisconnectSender(it->first, it->second);
    }
  }

  // Fill toward MAX_SENDERS from the RanSub subset, best candidates first.
  const int want = max_senders_ - static_cast<int>(sender_nodes_.size());
  if (want <= 0) {
    return;
  }
  struct Scored {
    int64_t score;
    NodeId node;
  };
  std::vector<Scored> scored;
  for (const auto& peer : subset) {
    if (peer.node == self() || peer.node < 0 || peer.block_count == 0 ||
        sender_nodes_.count(peer.node) > 0) {
      continue;
    }
    AvailabilitySketch theirs;
    theirs.set_bits(peer.sketch_bits);
    const int novel = theirs.NovelBucketsVs(sketch_);
    scored.push_back(Scored{static_cast<int64_t>(novel) * 1000000 + peer.block_count, peer.node});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  for (int i = 0; i < want && i < static_cast<int>(scored.size()); ++i) {
    ConnectToSender(scored[static_cast<size_t>(i)].node);
  }
}

void BulletPrime::ManageReceiverSet(double epoch_sec) {
  if (!config_.dynamic_peer_sets || receivers_.empty()) {
    return;
  }
  int64_t out_bytes = 0;
  for (const auto& [conn, r] : receivers_) {
    out_bytes += r.epoch_bytes;
  }
  const double out_bps = static_cast<double>(out_bytes) * 8.0 / epoch_sec;
  max_receivers_ = ManageMaxPeers(receiver_adapt_, static_cast<int>(receivers_.size()), out_bps,
                                  config_.min_peers, config_.max_peers);

  // Trim receivers by the fraction of their total inbound bandwidth that we provide:
  // closing a low-ratio receiver barely hurts it, while freeing our uplink.
  std::vector<ConnId> trim_conns;
  std::vector<double> metric;
  for (const auto& [conn, r] : receivers_) {
    if (r.reported_total_in_bps > 0 && FullEpoch(r.connected_at, last_epoch_at_)) {
      const double our_bps = static_cast<double>(r.epoch_bytes) * 8.0 / epoch_sec;
      trim_conns.push_back(conn);
      metric.push_back(our_bps / r.reported_total_in_bps);
    }
  }
  for (const size_t i :
       TrimIndices(metric, config_.trim_stddevs, static_cast<size_t>(config_.min_peers))) {
    auto it = receivers_.find(trim_conns[i]);
    if (it != receivers_.end()) {
      net().Close(it->first);
      receivers_.erase(it);
    }
  }
  while (static_cast<int>(receivers_.size()) > max_receivers_ &&
         static_cast<int>(receivers_.size()) > config_.min_peers) {
    auto worst = receivers_.end();
    int64_t worst_bytes = INT64_MAX;
    for (auto it = receivers_.begin(); it != receivers_.end(); ++it) {
      if (it->second.epoch_bytes < worst_bytes) {
        worst_bytes = it->second.epoch_bytes;
        worst = it;
      }
    }
    if (worst == receivers_.end()) {
      break;
    }
    net().Close(worst->first);
    receivers_.erase(worst);
  }
}

// ---------------------------------------------------------------------------
// Peering connections
// ---------------------------------------------------------------------------

void BulletPrime::ConnectToSender(NodeId node) {
  const ConnId conn = net().Connect(self(), node);
  if (conn < 0) {
    return;
  }
  sender_nodes_.insert(node);
  Sender s;
  s.node = node;
  s.conn = conn;
  s.has.Resize(file_.BlockSpace());
  s.desired = config_.dynamic_outstanding ? config_.initial_outstanding
                                          : static_cast<double>(config_.fixed_outstanding);
  s.connected_at = now();
  senders_.emplace(conn, std::move(s));
}

void BulletPrime::OnPeerConnUp(ConnId conn, NodeId /*peer*/, bool initiator) {
  if (initiator) {
    auto it = senders_.find(conn);
    if (it != senders_.end()) {
      auto req = std::make_unique<bp::PeerRequestMsg>();
      AccountControlOut(req->wire_bytes);
      net().Send(conn, self(), std::move(req));
    }
  }
  // The acceptor side waits for the PeerRequest message.
}

void BulletPrime::OnPeerConnDown(ConnId conn, NodeId /*peer*/) {
  auto sit = senders_.find(conn);
  if (sit != senders_.end()) {
    // Undo availability accounting and requeue outstanding requests; skip Close
    // (the connection is already down).
    Sender& s = sit->second;
    for (const uint32_t id : s.has.SetBits()) {
      --rarity_[id];
    }
    const std::vector<uint32_t> requeue = TakeRequestsFrom(conn);
    sender_nodes_.erase(s.node);
    senders_.erase(sit);
    for (const uint32_t id : requeue) {
      for (auto& [c2, s2] : senders_) {
        if (s2.has.Test(id)) {
          s2.candidates.Readd(id);
        }
      }
    }
    for (auto& [c2, s2] : senders_) {
      IssueRequests(s2);
    }
    return;
  }
  receivers_.erase(conn);
}

void BulletPrime::DisconnectSender(ConnId conn, Sender& s) {
  for (const uint32_t id : s.has.SetBits()) {
    --rarity_[id];
  }
  const std::vector<uint32_t> requeue = TakeRequestsFrom(conn);
  sender_nodes_.erase(s.node);
  net().Close(conn);
  senders_.erase(conn);
  for (const uint32_t id : requeue) {
    for (auto& [c2, s2] : senders_) {
      if (s2.has.Test(id)) {
        s2.candidates.Readd(id);
      }
    }
  }
}

std::vector<uint32_t> BulletPrime::TakeRequestsFrom(ConnId conn) {
  std::vector<uint32_t> taken;
  for (const auto& [block, c] : requested_) {
    if (c == conn) {
      taken.push_back(block);
    }
  }
  for (const uint32_t id : taken) {
    ClearRequested(id);
  }
  return taken;
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void BulletPrime::OnProtocolMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) {
  switch (msg->type) {
    case bp::PeerRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      if (static_cast<int>(receivers_.size()) < std::min(max_receivers_, config_.max_peers)) {
        Receiver r;
        r.node = from;
        r.conn = conn;
        r.told.Resize(file_.BlockSpace());
        r.connected_at = now();
        auto [it, inserted] = receivers_.emplace(conn, std::move(r));
        auto accept = std::make_unique<bp::PeerAcceptMsg>();
        AccountControlOut(accept->wire_bytes);
        net().Send(conn, self(), std::move(accept));
        SendFullDiff(it->second);
      } else {
        auto reject = std::make_unique<bp::PeerRejectMsg>();
        AccountControlOut(reject->wire_bytes);
        net().Send(conn, self(), std::move(reject));
      }
      return;
    }
    case bp::PeerAcceptMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        it->second.active = true;
      }
      return;
    }
    case bp::PeerRejectMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        sender_nodes_.erase(it->second.node);
        senders_.erase(it);
      }
      net().Close(conn);
      return;
    }
    case bp::DiffMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        Sender& s = it->second;
        s.diff_request_inflight = false;
        const auto& ids = static_cast<bp::DiffMsg&>(*msg).ids;
        if (ids.empty()) {
          s.diff_request_exhausted = true;  // wait for the sender to push news
        }
        HandleAvailability(s, ids);
        IssueRequests(s);
      }
      return;
    }
    case bp::DiffRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = receivers_.find(conn);
      if (it != receivers_.end()) {
        SendFullDiff(it->second);
      }
      return;
    }
    case bp::BlockRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      OnBlockRequest(conn, static_cast<bp::BlockRequestMsg&>(*msg));
      return;
    }
    case bp::BlockMsg::kType: {
      OnBlockMsg(conn, from, static_cast<bp::BlockMsg&>(*msg));
      return;
    }
    default:
      return;
  }
}

void BulletPrime::HandleAvailability(Sender& s, const std::vector<uint32_t>& ids) {
  for (const uint32_t id : ids) {
    if (id >= file_.BlockSpace() || s.has.Test(id)) {
      continue;
    }
    s.has.Set(id);
    ++rarity_[id];
    s.diff_request_exhausted = false;  // the sender has something new again
    if (!have_.Test(id)) {
      s.candidates.Add(id);
    }
  }
}

int BulletPrime::OutstandingLimit(const Sender& s) const {
  if (!config_.dynamic_outstanding) {
    return config_.fixed_outstanding;
  }
  return static_cast<int>(std::floor(s.desired));
}

void BulletPrime::IssueRequests(Sender& s) {
  BULLET_PROFILE_SCOPE(ProfilePhase::kRequestStrategy);
  if (!s.active || complete()) {
    return;
  }
  const auto valid = [this](uint32_t id) { return !have_.Test(id) && is_requested_[id] == 0; };
  const auto rarity = [this](uint32_t id) { return rarity_[id]; };
  // Streaming mode: only blocks inside the sliding playback window (and
  // already released at the source) are requestable; the configured strategy
  // applies within the window. Out-of-window candidates stay queued. One
  // window serves the whole call: sends are asynchronous, so nothing below
  // marks a position held, and now() does not move.
  const bool windowed = stream_ != nullptr;
  const StreamPlayback::RequestWindow window =
      windowed ? stream_->WindowAt(now()) : StreamPlayback::RequestWindow{};
  const auto eligible = [&window](uint32_t id) { return window.Contains(id); };
  const int limit = OutstandingLimit(s);
  // A windowed pick that scans every entry and returns nothing has just shown
  // that no candidate is valid and in-window: the RunningDry scan below
  // would answer "dry", so it is skipped (see CandidateSet::PickWindowed).
  bool known_dry = false;
  while (s.outstanding < limit) {
    const auto pick =
        windowed
            ? s.candidates.PickWindowed(config_.request_strategy, valid, eligible, rarity, rng())
            : s.candidates.Pick(config_.request_strategy, valid, rarity, rng());
    if (!pick.has_value()) {
      known_dry = windowed && config_.request_strategy != RequestStrategy::kFirstEncountered;
      break;
    }
    auto req = std::make_unique<bp::BlockRequestMsg>();
    req->block_id = *pick;
    req->receiver_total_in_bps = static_cast<float>(incoming_total_Bps_.value() * 8.0);
    if (config_.dynamic_outstanding && !s.mark_inflight) {
      req->marked = true;
      s.mark_inflight = true;
    }
    AccountControlOut(req->wire_bytes);
    MarkRequested(*pick, s.conn);
    ++s.outstanding;
    net().Send(s.conn, self(), std::move(req));
  }
  // About to run dry on this sender: ask for a diff (Section 3.3.4). In
  // streaming mode "dry" means dry *within the window* — availability news may
  // unlock in-window blocks even while out-of-window candidates queue up.
  const auto dry_valid = [&](uint32_t id) { return valid(id) && (!windowed || eligible(id)); };
  if (!s.diff_request_inflight && !s.diff_request_exhausted &&
      (known_dry || s.candidates.RunningDry(static_cast<size_t>(limit) + 1, dry_valid))) {
    auto dreq = std::make_unique<bp::DiffRequestMsg>();
    AccountControlOut(dreq->wire_bytes);
    s.diff_request_inflight = true;
    net().Send(s.conn, self(), std::move(dreq));
  }
}

void BulletPrime::OnBlockRequest(ConnId conn, bp::BlockRequestMsg& msg) {
  auto it = receivers_.find(conn);
  if (it == receivers_.end()) {
    return;
  }
  Receiver& r = it->second;
  r.reported_total_in_bps = msg.receiver_total_in_bps;
  r.told.Set(msg.block_id);
  ServeBlock(r, msg.block_id, msg.marked);
}

void BulletPrime::ServeBlock(Receiver& r, uint32_t id, bool marked) {
  if (!have_.Test(id)) {
    return;  // We never advertised it; ignore.
  }
  // Flow-control measurements for the receiver (Section 3.3.3): how many blocks sit
  // in front of the socket buffer, and whether the pipe had gone idle (wasted < 0)
  // or the request will wait in the queue (wasted > 0).
  const int64_t queued = net().QueuedBytes(r.conn, self());
  const double in_front =
      static_cast<double>(queued) / static_cast<double>(file_.block_bytes);
  double wasted_sec = 0.0;
  if (queued == 0) {
    wasted_sec = -SimToSec(net().IdleTime(r.conn, self()));
  } else {
    const double rate_bps = net().CurrentRateBps(r.conn, self());
    wasted_sec = rate_bps > 1.0 ? static_cast<double>(queued) * 8.0 / rate_bps : 0.0;
  }

  auto block = std::make_unique<bp::BlockMsg>();
  block->block_id = id;
  block->marked = marked;
  block->in_front = static_cast<float>(in_front);
  block->wasted_sec = static_cast<float>(wasted_sec);
  // Piggyback availability news the receiver has not heard about yet.
  for (const uint32_t news_id : have_.DiffFrom(r.told)) {
    if (static_cast<int>(block->news.size()) >= config_.piggyback_limit) {
      break;
    }
    block->news.push_back(news_id);
    r.told.Set(news_id);
  }
  block->Finalize(file_.block_bytes);
  r.epoch_bytes += block->wire_bytes;
  net().Send(r.conn, self(), std::move(block));
}

void BulletPrime::OnBlockMsg(ConnId conn, NodeId /*from*/, bp::BlockMsg& msg) {
  auto it = senders_.find(conn);
  if (it == senders_.end()) {
    // Pushed block from the source on the control tree (or a late delivery from a
    // closed peering). Still useful data.
    const bool fresh = AcceptBlock(msg.block_id, msg.wire_bytes);
    if (fresh) {
      MarkReceiversDirtyOnNewBlock();
    }
    return;
  }
  Sender& s = it->second;
  s.outstanding = std::max(0, s.outstanding - 1);
  ClearRequested(msg.block_id);
  s.epoch_bytes += msg.wire_bytes;
  s.last_arrival = now();

  const bool fresh = AcceptBlock(msg.block_id, msg.wire_bytes);
  if (fresh) {
    MarkReceiversDirtyOnNewBlock();
  }
  if (complete()) {
    return;  // OnFileComplete() disconnected every sender; `s` is gone.
  }
  HandleAvailability(s, msg.news);

  if (msg.marked) {
    s.mark_inflight = false;
    if (config_.dynamic_outstanding) {
      const double window_sec =
          std::max(SimToSec(now() - std::max(last_epoch_at_, s.connected_at)), 0.25);
      const double bw_Bps = static_cast<double>(s.epoch_bytes) / window_sec;
      OutstandingParams params;
      params.alpha = config_.xcp_alpha;
      params.beta = config_.xcp_beta;
      // "requested" in the Fig. 3 pseudocode counts requests not yet queued for
      // service at the sender: blocks already sitting in front of the socket buffer
      // are subtracted, which is what makes `desired = requested + 1` converge on
      // the stated goal of exactly one block in front.
      const double requested =
          std::max(0.0, static_cast<double>(s.outstanding) + 1.0 - msg.in_front);
      s.desired = ManageOutstanding(requested, msg.in_front, msg.wasted_sec, bw_Bps,
                                    static_cast<double>(file_.block_bytes), params);
    }
  }
  if (!complete()) {
    IssueRequests(s);
  }
}

// ---------------------------------------------------------------------------
// Diff sending (Section 3.3.4)
// ---------------------------------------------------------------------------

void BulletPrime::SendFullDiff(Receiver& r) {
  auto diff = std::make_unique<bp::DiffMsg>();
  diff->ids = have_.DiffFrom(r.told);
  for (const uint32_t id : diff->ids) {
    r.told.Set(id);
  }
  diff->Finalize(file_.BlockSpace());
  AccountControlOut(diff->wire_bytes);
  r.diff_dirty = false;
  net().Send(r.conn, self(), std::move(diff));
}

void BulletPrime::MarkReceiversDirtyOnNewBlock() {
  bool any = false;
  for (auto& [conn, r] : receivers_) {
    if (net().QueuedBytes(conn, self()) == 0) {
      r.diff_dirty = true;
      any = true;
    }
  }
  if (any && !diff_flush_scheduled_) {
    diff_flush_scheduled_ = true;
    queue().ScheduleAfter(config_.diff_flush_delay, [this] { FlushDirtyDiffs(); });
  }
}

void BulletPrime::FlushDirtyDiffs() {
  diff_flush_scheduled_ = false;
  for (auto& [conn, r] : receivers_) {
    if (r.diff_dirty) {
      SendFullDiff(r);
    }
  }
}

void BulletPrime::OnFileComplete() {
  // Stop downloading; keep serving (the paper assumes cooperative nodes stay).
  std::vector<ConnId> conns;
  conns.reserve(senders_.size());
  for (const auto& [conn, s] : senders_) {
    conns.push_back(conn);
  }
  for (const ConnId conn : conns) {
    auto it = senders_.find(conn);
    if (it != senders_.end()) {
      DisconnectSender(it->first, it->second);
    }
  }
}

double BulletPrime::TotalIncomingBps() const { return incoming_total_Bps_.value() * 8.0; }

namespace {

// Pulls the session's BulletPrimeConfig out of the spec, defaulting when the
// caller supplied none. The harness validated the type against the registry's
// config_type at AddSession, so a non-empty any always holds this type.
BulletPrimeConfig ResolveBulletPrimeConfig(const SessionSpec& spec) {
  if (const auto* config = std::any_cast<BulletPrimeConfig>(&spec.protocol_config)) {
    return *config;
  }
  return BulletPrimeConfig{};
}

}  // namespace

void RegisterBulletPrimeProtocol() {
  ProtocolRegistry::Entry entry;
  entry.key = "bullet-prime";
  entry.display_name = "BulletPrime";
  entry.description = "Bullet' (Section 3): adaptive mesh over RanSub with the paper's "
                      "peer-set and outstanding-request controllers";
  entry.encoded_stream = false;
  entry.config_type = &typeid(BulletPrimeConfig);
  entry.make = [](const ProtocolRegistry::SessionEnv& env) -> ProtocolRegistry::NodeFactory {
    const BulletPrimeConfig config = ResolveBulletPrimeConfig(*env.spec);
    const FileParams file = env.spec->file;
    const NodeId source = env.spec->source;
    const ControlTree* tree = env.tree;
    const std::optional<StreamingSpec> streaming = env.spec->streaming;
    const SimTime session_start = env.spec->start;
    return [config, file, source, tree, streaming, session_start](const Protocol::Context& ctx) {
      auto p = std::make_unique<BulletPrime>(ctx, file, source, tree, config);
      if (streaming.has_value()) {
        p->ConfigureStreaming(*streaming, session_start);
      }
      return std::unique_ptr<Protocol>(std::move(p));
    };
  };
  ProtocolRegistry::Global().Register(std::move(entry));
}

}  // namespace bullet
