#include "src/proto/aurc.h"

#include <utility>

namespace hlrc {

int64_t AurcProtocol::ProtocolMemoryBytes() const {
  return known_interval_bytes_ + SubclassMemoryBytes();
}

void AurcProtocol::OnIntervalClosed(const std::shared_ptr<IntervalRecord>& rec,
                                    CloseActions* actions) {
  PageList kept;
  for (PageId p : rec->pages) {
    // Flushes route via the static home (which forwards after a migration);
    // the home-effect test must use the believed home, or a node that just
    // became the home via migration would look for a twin it never made.
    const NodeId home = HomeOf(p);
    if (IsHomeHere(p)) {
      HLRC_CHECK(!pages().HasTwin(p));
      meta_.SetApplied(p, self(), rec->id);
      meta_.ClearStreak(p);  // The home is writing: no migration streak.
      kept.push_back(p);
      continue;
    }
    HLRC_CHECK(pages().HasTwin(p));
    Diff d = CreateDiff(p, pages().Twin(p), pages().PageData(p),
                        pages().page_size(), env().options->diff_word_bytes);
    pages().DropTwin(p);
    if (d.Empty()) {
      continue;
    }
    kept.push_back(p);
    meta_.UpdateRequired(p, self(), rec->id);
    // The automatic-update hardware streamed these words out as they were
    // stored: no diff-creation cost, no diffs_created accounting (Table 4's
    // "AURC uses no diff operations"), but write-through amplification on the
    // wire. The flush carries the writer's interval so the home's flush
    // timestamps stay exact.
    const int64_t wire_bytes = static_cast<int64_t>(
        static_cast<double>(d.DataBytes()) * env().options->aurc_write_amplification);
    // No diff operation happened, but the amplified update bytes are still
    // attributable page traffic for the heat profile.
    MetricDiffCreated(p, wire_bytes);
    auto payload = std::make_unique<DiffFlushPayload>();
    payload->writer = self();
    payload->page = p;
    payload->interval = rec->id;
    payload->diff = std::move(d);
    SpanCause sc(this, interval_close_span());
    Send(home, MsgType::kDiffFlush, wire_bytes, 16, std::move(payload));
  }
  rec->pages = std::move(kept);
  (void)actions;  // Zero software cost at interval end.
}

void AurcProtocol::HandleProtocolMessage(Message msg) {
  if (msg.type == MsgType::kDiffFlush) {
    // Automatic updates land in home memory without interrupting either
    // processor: apply at delivery, zero occupancy. The zero-duration span
    // keeps the causal chain connected (e.g. a home-wait released by this
    // flush still traces back to the writer's interval close).
    auto* p = static_cast<DiffFlushPayload*>(msg.payload.get());
    SpanCause sc(this, SpanEmit(SpanKind::kDiffApply, engine()->Now(), msg.span, p->page));
    HandleDiffFlush(p->writer, p->page, p->interval, p->diff);
    return;
  }
  HlrcProtocol::HandleProtocolMessage(std::move(msg));
}

}  // namespace hlrc
