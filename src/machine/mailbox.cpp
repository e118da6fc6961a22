#include "machine/mailbox.hpp"

#include <algorithm>
#include <cassert>

namespace camb {

void Mailbox::append(Message msg) {
  int at = free_;
  if (at >= 0) {
    free_ = slab_[static_cast<std::size_t>(at)].next;
  } else {
    at = static_cast<int>(slab_.size());
    slab_.emplace_back();
  }
  Node& node = slab_[static_cast<std::size_t>(at)];
  const int src = msg.src;
  node.msg = std::move(msg);
  node.next = -1;
  Bucket* b = buckets_.find(src);
  if (b == nullptr) b = &buckets_.insert(src, Bucket{});
  if (b->tail < 0) {
    b->head = at;
  } else {
    slab_[static_cast<std::size_t>(b->tail)].next = at;
  }
  b->tail = at;
}

int Mailbox::find_match(const Bucket& b, int tag, int* prev) const {
  *prev = -1;
  for (int at = b.head; at >= 0;) {
    const Node& node = slab_[static_cast<std::size_t>(at)];
    if (node.msg.tag == tag) return at;
    *prev = at;
    at = node.next;
  }
  return -1;
}

void Mailbox::wait_for_mail(std::unique_lock<std::mutex>& lock) {
  if (Fiber* fiber = Fiber::current()) {
    fiber->park_on(waiters_, lock);
  } else {
    cv_.wait(lock);
  }
}

void Mailbox::trim_order_front() {
  while (!stale_.empty() && !order_.empty() &&
         stale_.erase(order_.front().seq)) {
    order_.pop_front();
  }
}

Message Mailbox::take_oldest(int src, int tag, bool indexed) {
  Bucket* b = buckets_.find(src);
  assert(b != nullptr);
  int prev = -1;
  const int at = find_match(*b, tag, &prev);
  assert(at >= 0);
  return take(*b, at, prev, indexed);
}

Message Mailbox::take(Bucket& b, int at, int prev, bool indexed) {
  Node& node = slab_[static_cast<std::size_t>(at)];
  if (prev < 0) {
    b.head = node.next;
  } else {
    slab_[static_cast<std::size_t>(prev)].next = node.next;
  }
  if (b.tail == at) b.tail = prev;
  Message out = std::move(node.msg);
  node.next = free_;
  free_ = at;
  if (indexed) {
    // Fast path: the matched message is the globally oldest (the common
    // case — most receives find an empty or shallow queue), so its index
    // entry can be dropped directly instead of lazily via the stale set.
    if (!order_.empty() && order_.front().seq == out.seq) {
      order_.pop_front();
    } else {
      stale_.insert(out.seq, 0);
      compact_if_sparse();
    }
  }
  --size_;
  return out;
}

void Mailbox::compact_if_sparse() {
  // Stale entries buried behind long-lived live entries can't be trimmed
  // from the front; once they outnumber the live entries, filter them out
  // of the index in place.  The pass costs O(live + stale) and needs at
  // least `live` further matches to trigger again, so it is amortized O(1)
  // and bounds the index at twice the pending-message count (plus slack).
  if (stale_.size() <= 64 || stale_.size() <= size_) return;
  order_.erase_if([this](const Entry& e) { return stale_.contains(e.seq); });
  stale_.clear();
}

void Mailbox::push(Message msg, int reorder_skip) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    msg.seq = next_seq_++;
    order_.push_back(Entry{msg.src, msg.tag, msg.seq});
    append(std::move(msg));
    ++size_;
    // The legal-reordering swap walks the lightweight index only; stale
    // entries (whose message is already gone) are passed for free, exactly
    // as if they were not there.  Position relative to stale entries is
    // unobservable (every reader skips them), so once the skip budget is
    // spent the walk stops immediately — even mid-run of stale entries.
    std::size_t pos = order_.size() - 1;
    while (reorder_skip > 0 && pos > 0) {
      Entry& prev = order_[pos - 1];
      Entry& mover = order_[pos];
      if (!stale_.contains(prev.seq)) {
        if (prev.src == mover.src && prev.tag == mover.tag) break;
        --reorder_skip;
      }
      std::swap(prev, mover);
      --pos;
    }
  }
  cv_.notify_all();
  waiters_.notify_all();
}

Message Mailbox::pop_matching(int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // find, never insert: a receive polling a source that has never sent
    // (common while blocked on a slow or dead peer) must not materialize an
    // empty bucket — buckets exist only for sources that actually pushed.
    if (Bucket* b = buckets_.find(src)) {
      int prev = -1;
      const int at = find_match(*b, tag, &prev);
      if (at >= 0) {
        Message out = take(*b, at, prev, /*indexed=*/true);
        trim_order_front();
        return out;
      }
    }
    wait_for_mail(lock);
  }
}

RecvStatus Mailbox::pop_matching_or_failed(int src, int tag, double max_stamp,
                                           Message* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (Bucket* b = buckets_.find(src)) {
      int prev = -1;
      const int at = find_match(*b, tag, &prev);
      if (at >= 0) {
        if (slab_[static_cast<std::size_t>(at)].msg.depart_time > max_stamp) {
          return RecvStatus::kTimedOut;
        }
        *out = take(*b, at, prev, /*indexed=*/true);
        trim_order_front();
        return RecvStatus::kDelivered;
      }
    }
    // Nothing buffered: only now may the failure marking decide the outcome.
    // A message buffered before the source died is a program-order fact of
    // the sender and is always delivered first (match above).
    if (std::find(dead_.begin(), dead_.end(), src) != dead_.end()) {
      return RecvStatus::kSrcDead;
    }
    for (const auto& [r, base] : deviated_) {
      if (r == src && tag < base) return RecvStatus::kSrcDeviated;
    }
    wait_for_mail(lock);
  }
}

Message Mailbox::pop_any() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (size_ == 0) wait_for_mail(lock);
  trim_order_front();
  // The front index entry is the earliest live entry of its envelope, so
  // the oldest queued message of that envelope *is* its message.
  const Entry e = order_.front();
  order_.pop_front();
  Message out = take_oldest(e.src, e.tag, /*indexed=*/false);
  assert(out.seq == e.seq);
  return out;
}

void Mailbox::clear_buckets() {
  buckets_.clear();
  slab_.clear();
  free_ = -1;
  stale_.clear();
  size_ = 0;
}

void Mailbox::mark_dead(int src) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::find(dead_.begin(), dead_.end(), src) == dead_.end()) {
      dead_.push_back(src);
    }
  }
  cv_.notify_all();
  waiters_.notify_all();
}

void Mailbox::mark_deviated(int src, int tag_base) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deviated_.emplace_back(src, tag_base);
  }
  cv_.notify_all();
  waiters_.notify_all();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

std::size_t Mailbox::bucket_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.size();
}

std::vector<Message> Mailbox::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  out.reserve(size_);
  while (!order_.empty()) {
    const Entry e = order_.front();
    order_.pop_front();
    if (stale_.erase(e.seq)) continue;
    out.push_back(take_oldest(e.src, e.tag, /*indexed=*/false));
  }
  clear_buckets();
  return out;
}

void Mailbox::drain_undelivered(int dst, std::vector<UndeliveredMessage>& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!order_.empty()) {
    const Entry e = order_.front();
    order_.pop_front();
    if (stale_.erase(e.seq)) continue;
    Message msg = take_oldest(e.src, e.tag, /*indexed=*/false);
    out.push_back(UndeliveredMessage{msg.src, dst, msg.tag,
                                     msg.payload.byte_size(), msg.phase.name(),
                                     msg.transport_dup});
  }
  clear_buckets();
}

}  // namespace camb
