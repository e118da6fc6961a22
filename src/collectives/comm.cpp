#include "collectives/comm.hpp"

#include <algorithm>
#include <numeric>

namespace camb::coll {

namespace {

/// Range check, then duplicates via a sorted copy of the member list:
/// O(p log p) in the comm size p, never O(P) in the machine size — every
/// rank builds its row and column comms, so a machine-sized mask would make
/// comm construction O(P^2) per run.
int validate_and_find(const std::vector<int>& ranks, int nprocs, int me) {
  CAMB_CHECK_MSG(!ranks.empty(), "comm must have at least one member");
  int my_index = -1;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const int r = ranks[i];
    CAMB_CHECK_MSG(r >= 0 && r < nprocs, "comm rank out of range");
    if (r == me) my_index = static_cast<int>(i);
  }
  std::vector<int> sorted = ranks;
  std::sort(sorted.begin(), sorted.end());
  CAMB_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "comm ranks must be distinct");
  return my_index;
}

}  // namespace

Comm::Comm(RankCtx& ctx, std::vector<int> ranks, TagLease tag_lease)
    : ctx_(&ctx), ranks_(std::move(ranks)), lease_(tag_lease) {
  my_index_ = validate_and_find(ranks_, ctx.nprocs(), ctx.rank());
}

Comm::Comm(RankCtx& ctx, std::vector<int> ranks, int tag_blocks)
    : Comm(ctx, std::move(ranks), ctx.tags().lease(tag_blocks)) {
  CAMB_CHECK_MSG(member(),
                 "rank must be a member of the comms it creates "
                 "(use Comm::recovery for survivor bookkeeping)");
}

Comm Comm::world(RankCtx& ctx, int tag_blocks) {
  std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
  std::iota(ranks.begin(), ranks.end(), 0);
  return Comm(ctx, std::move(ranks), tag_blocks);
}

Comm Comm::recovery(RankCtx& ctx, std::vector<int> ranks, int tag_blocks) {
  return Comm(ctx, std::move(ranks), ctx.tags().lease_recovery(tag_blocks));
}

Comm Comm::split(const std::function<int(int)>& color_of_index,
                 int tag_blocks) const {
  CAMB_CHECK_MSG(member(), "only members can split a comm");
  const int my_color = color_of_index(my_index_);
  std::vector<int> mine;
  for (int i = 0; i < size(); ++i) {
    if (color_of_index(i) == my_color) {
      mine.push_back(ranks_[static_cast<std::size_t>(i)]);
    }
  }
  return is_recovery() ? recovery(*ctx_, std::move(mine), tag_blocks)
                       : Comm(*ctx_, std::move(mine), tag_blocks);
}

int Comm::index_of(int rank) const {
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    if (ranks_[i] == rank) return static_cast<int>(i);
  }
  throw Error("rank " + std::to_string(rank) + " not in comm");
}

int Comm::take_tag_block() const {
  CAMB_CHECK_MSG(member(), "only members may communicate on a comm");
  CAMB_CHECK_MSG(next_block_ < lease_.blocks,
                 "comm tag lease exhausted — construct with more tag_blocks");
  return lease_.base + (next_block_++) * kTagBlockWidth;
}

void Comm::check_member_op(int peer_index, int tag) const {
  CAMB_CHECK_MSG(member(), "only members may communicate on a comm");
  CAMB_CHECK_MSG(peer_index >= 0 && peer_index < size(),
                 "comm index out of range");
  CAMB_CHECK_MSG(tag >= lease_.base && tag < lease_.limit(),
                 "tag outside this comm's lease");
}

void Comm::send(int dst_index, int tag, Buffer payload) const {
  check_member_op(dst_index, tag);
  ctx_->send(rank_at(dst_index), tag, std::move(payload));
}

Buffer Comm::recv(int src_index, int tag) const {
  check_member_op(src_index, tag);
  return ctx_->recv(rank_at(src_index), tag);
}

Buffer Comm::sendrecv(int peer_index, int tag, Buffer payload) const {
  check_member_op(peer_index, tag);
  return ctx_->sendrecv(rank_at(peer_index), tag, std::move(payload));
}

}  // namespace camb::coll
