// buffer_pool.hpp — pooled, move-only, width-tagged message payloads.
//
// Every message the simulator carries used to be a freshly heap-allocated
// std::vector<double>; a stress sweep sends millions of them, so allocation
// was a first-order cost of the hot path.  A Buffer is a move-only payload
// whose storage is recycled through a per-rank free-list pool: destroying a
// Buffer returns its storage to the pool it was drawn from, and the next
// acquisition on that rank reuses it instead of touching the allocator.
//
// Since the scalar-substrate refactor a Buffer additionally carries the
// element width of its payload.  Storage stays a vector of 8-byte words
// (double-sized slots — the pool recycles raw capacity, not types); typed
// payloads are packed into it by memcpy with the trailing word zero-padded,
// and the pair (elems_, elem_bytes_) records what the bytes mean.  The
// accounting quantity is byte_size() = elems · elem_bytes: exact for every
// dtype, including half-word f32 payloads.  For double payloads
// elems == size() and byte_size() == 8 · size(), so the f64 path — and every
// committed golden record — is bit- and count-identical to before.
//
// Ownership and hand-off rules:
//
//   * A Buffer drawn from (or adopted into) pool X returns its storage to X
//     when destroyed, *no matter which thread destroys it*.  This is the
//     cross-thread hand-off of the message path — rank A packs a payload,
//     rank B consumes and destroys it — and is why the pool's free lists are
//     mutex-guarded even though acquisition is single-threaded per rank.
//   * Adopting a std::vector<double> (the implicit converting constructor)
//     is a move of the vector's storage, never a copy; the storage joins the
//     current thread's pool cycle.  Moving a Buffer out into a vector
//     (`take()` / the rvalue conversion) detaches the storage from the pool.
//   * Buffers are value-identical to the vectors they wrap: zeros(n) has
//     exactly the contents of std::vector<double>(n), so switching payload
//     types cannot move a single bit of any computed result.
//
// The pool's free lists are bucketed by byte-size class (bit-ceil of the
// storage capacity in bytes), so a rank juggling small control messages and
// large block panels reuses like-for-like capacity instead of thrashing one
// list.  A reused storage may still be resized by the fill (assign/resize
// handle that), so a class hit is an optimization, never a correctness
// requirement.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace camb {

class BufferPool;

/// A move-only message payload backed by pooled storage, tagged with the
/// element width of its contents.
class Buffer {
 public:
  using value_type = double;

  Buffer() = default;

  /// Adopt a vector's storage (a move, never a copy).  The storage joins the
  /// calling thread's current pool cycle, if one is installed.
  Buffer(std::vector<double> v);  // NOLINT(google-explicit-constructor)

  /// Literal payloads (`send(dst, tag, {1.0, 2.0})`).
  Buffer(std::initializer_list<double> init)
      : Buffer(std::vector<double>(init)) {}

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer();

  /// A zero-filled n-word buffer from the current thread's pool (heap when
  /// no pool is installed).  Contents identical to std::vector<double>(n).
  static Buffer zeros(std::size_t words);

  /// A pooled copy of `words` doubles starting at `src` — the replacement
  /// for the pack-site idiom std::vector<double>(first, last).
  static Buffer copy_of(const double* src, std::size_t words);
  static Buffer copy_of(const std::vector<double>& v);

  /// A pooled copy of n elements of scalar T, packed by memcpy into word
  /// storage with the trailing word zero-padded (so storage contents — and
  /// therefore transport checksums — are a deterministic function of the
  /// payload).  For T = double this is exactly copy_of.
  template <typename T>
  static Buffer pack(const T* src, i64 n);
  template <typename T>
  static Buffer pack(const std::vector<T>& v) {
    return pack<T>(v.data(), static_cast<i64>(v.size()));
  }

  /// A zero-filled buffer of n elements of scalar T (additive identity for
  /// every supported scalar is all-zero bytes).
  template <typename T>
  static Buffer pack_zeros(i64 n);

  /// A pooled copy of this buffer, width tags included (the dup/corrupt
  /// transport paths must forward the tags or receiver-side accounting and
  /// unpacking would misread the copy).
  Buffer clone() const;

  /// Move the storage out, detaching it from the pool.  The Buffer is left
  /// empty.
  std::vector<double> take() &&;

  /// Rvalue-only conversion so `std::vector<double> v = ctx.recv(...)`
  /// stays a one-move assignment at every legacy call site.
  operator std::vector<double>() && { return std::move(*this).take(); }

  /// Typed take: move the storage out for double (zero copy), unpack by
  /// memcpy for every other scalar.  Width tag is checked either way.
  template <typename T>
  std::vector<T> take_as() && {
    if constexpr (std::is_same_v<T, double>) {
      CAMB_CHECK_MSG(elem_bytes_ == 8,
                     "buffer width tag does not match requested scalar");
      return std::move(*this).take();
    } else {
      return unpack<T>();
    }
  }

  /// Adopt a typed vector as a payload.  For double this is the classic
  /// storage move (zero copy); other scalars are packed by memcpy.
  template <typename T>
  static Buffer adopt(std::vector<T>&& v) {
    if constexpr (std::is_same_v<T, double>) {
      return Buffer(std::move(v));
    } else {
      return pack<T>(v.data(), static_cast<i64>(v.size()));
    }
  }

  /// Copy the payload out into `dst` (must hold elems<T>() elements) with a
  /// single memcpy — the typed replacement for std::copy out of a buffer.
  template <typename T>
  void unpack_into(T* dst) const {
    CAMB_CHECK_MSG(elem_bytes_ == static_cast<i64>(sizeof(T)),
                   "buffer width tag does not match requested scalar");
    // An empty payload may have no storage: memcpy from null is undefined
    // even for zero bytes.
    if (elems_ == 0) return;
    // Through void*: T may be a non-trivial scalar (kahan), which GCC's
    // -Wclass-memaccess flags on a typed destination.
    std::memcpy(static_cast<void*>(dst), storage_.data(),
                static_cast<std::size_t>(elems_) * sizeof(T));
  }

  /// Copy the payload out as n elements of T (memcpy — no aliasing games).
  /// Requires the buffer's width tag to match sizeof(T).
  template <typename T>
  std::vector<T> unpack() const {
    std::vector<T> out(static_cast<std::size_t>(elems_));
    unpack_into(out.data());
    return out;
  }

  /// Element count, checked against the expected scalar width.
  template <typename T>
  i64 elems() const {
    CAMB_CHECK_MSG(elem_bytes_ == static_cast<i64>(sizeof(T)),
                   "buffer width tag does not match requested scalar");
    return elems_;
  }

  /// Read-only view of the storage as a vector (for APIs that want one).
  const std::vector<double>& vec() const { return storage_; }

  /// Storage size in 8-byte words (== element count for double payloads).
  std::size_t size() const { return storage_.size(); }
  /// Exact payload size in bytes: elems · elem_bytes.  This is the quantity
  /// the communication accounting records.
  i64 byte_size() const { return elems_ * elem_bytes_; }
  i64 elem_count() const { return elems_; }
  i64 elem_bytes() const { return elem_bytes_; }

  bool empty() const { return storage_.empty(); }
  double* data() { return storage_.data(); }
  const double* data() const { return storage_.data(); }
  double& operator[](std::size_t i) { return storage_[i]; }
  const double& operator[](std::size_t i) const { return storage_[i]; }
  double* begin() { return storage_.data(); }
  double* end() { return storage_.data() + storage_.size(); }
  const double* begin() const { return storage_.data(); }
  const double* end() const { return storage_.data() + storage_.size(); }

  friend bool operator==(const Buffer& a, const std::vector<double>& b) {
    return a.storage_ == b;
  }
  friend bool operator==(const std::vector<double>& a, const Buffer& b) {
    return b.storage_ == a;
  }
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.storage_ == b.storage_;
  }

 private:
  friend class BufferPool;
  void release();

  std::vector<double> storage_;
  BufferPool* pool_ = nullptr;
  i64 elems_ = 0;
  i64 elem_bytes_ = 8;
};

/// Free lists of payload storages, bucketed by byte-size class.  One pool
/// per rank (owned by the Network); the rank's thread installs it as the
/// thread's current pool for the duration of the SPMD program
/// (BufferPool::Scope), so every payload packed on that rank draws from —
/// and eventually returns to — its pool.
class BufferPool {
 public:
  /// Reuse / return accounting (for tests and the hot-path bench).
  struct Stats {
    i64 acquires = 0;      ///< zeros/copy_of/pack acquisitions served
    i64 reuses = 0;        ///< acquisitions served from a free list
    i64 returns = 0;       ///< storages returned by ~Buffer
    i64 drops = 0;         ///< returns discarded because the bucket was full
    std::size_t free = 0;  ///< storages currently across all free lists
  };

  /// Per-bucket free-list cap: bounds idle memory per rank per size class;
  /// overflow returns are simply freed.
  static constexpr std::size_t kMaxFree = 64;

  /// Payloads below this word count bypass the pool entirely (the static
  /// Buffer helpers go straight to the heap and ~Buffer frees rather than
  /// gives back).  For tiny payloads the allocator's thread-local fast path
  /// beats a shared free list plus its cross-thread mutex; the pool's win —
  /// dodging page faults on fresh large blocks — only exists for payloads
  /// of real size.  (2 KiB: measured crossover on the perturbed stress
  /// sweep, whose payloads sit just below it, vs the compute sweep, whose
  /// block payloads sit far above.)
  static constexpr std::size_t kMinPooledWords = 256;
  static constexpr std::size_t kMinPooledBytes = kMinPooledWords * 8;

  /// Bucket classes: class c holds storages whose capacity's bit-ceil is
  /// 2^c words.  Class 8 (2 KiB) is the pooling threshold; everything at or
  /// beyond class 24 (128 MiB) shares the top bucket.
  static constexpr int kMinClass = 8;
  static constexpr int kMaxClass = 24;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A zero-filled n-word buffer owned by this pool.
  Buffer zeros(std::size_t words);
  /// A copy of `words` doubles owned by this pool.
  Buffer copy_of(const double* src, std::size_t words);
  /// A packed copy of `nbytes` raw payload bytes owned by this pool; the
  /// trailing storage word is zero-padded before the copy.
  Buffer bytes_copy(const void* src, i64 nbytes);
  /// Zero-filled storage covering `nbytes` payload bytes.
  Buffer bytes_zeros(i64 nbytes);

  /// Return a storage to its size class (called by ~Buffer, possibly from a
  /// different thread than the one that acquired it).
  void give(std::vector<double>&& storage);

  Stats stats() const;
  /// Drop every free storage (tests that want a cold pool).
  void trim();

  /// The calling thread's current pool (nullptr outside an SPMD program).
  static BufferPool* current();

  /// RAII installation of a thread's current pool.
  class Scope {
   public:
    explicit Scope(BufferPool* pool);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BufferPool* prev_;
  };

 private:
  /// Bucket index for a storage of `words` capacity (clamped to the range).
  static int size_class(std::size_t words);

  /// Pop a free storage from the class serving `words`, or an empty vector
  /// on a miss.  Lock held briefly; the (potentially large) fill happens
  /// outside the critical section.
  std::vector<double> pop_free(std::size_t words);

  mutable std::mutex mutex_;
  std::array<std::vector<std::vector<double>>, kMaxClass - kMinClass + 1>
      free_;
  Stats stats_;
};

/// Read-only typed view of a received payload.  For double it aliases the
/// buffer's storage directly (storage *is* double — the zero-copy hot path);
/// for other scalars it unpacks once by memcpy and owns the copy.
template <typename T>
class TypedView {
 public:
  explicit TypedView(const Buffer& b) {
    if constexpr (std::is_same_v<T, double>) {
      ptr_ = b.data();
      n_ = b.elems<double>();
    } else {
      copy_ = b.unpack<T>();
      ptr_ = copy_.data();
      n_ = static_cast<i64>(copy_.size());
    }
  }
  const T* data() const { return ptr_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + n_; }
  i64 size() const { return n_; }
  const T& operator[](i64 i) const { return ptr_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<T> copy_;
  const T* ptr_ = nullptr;
  i64 n_ = 0;
};

template <typename T>
Buffer Buffer::pack(const T* src, i64 n) {
  static_assert(std::is_trivially_copyable_v<T>,
                "Buffer payloads are raw bytes");
  CAMB_CHECK(n >= 0);
  if constexpr (sizeof(T) == sizeof(double) && std::is_same_v<T, double>) {
    return copy_of(src, static_cast<std::size_t>(n));
  } else {
    const i64 nbytes = n * static_cast<i64>(sizeof(T));
    if (static_cast<std::size_t>(nbytes) >= BufferPool::kMinPooledBytes) {
      if (BufferPool* pool = BufferPool::current()) {
        Buffer out = pool->bytes_copy(src, nbytes);
        out.elems_ = n;
        out.elem_bytes_ = static_cast<i64>(sizeof(T));
        return out;
      }
    }
    std::vector<double> storage(
        static_cast<std::size_t>(ceil_div(nbytes, 8)), 0.0);
    if (nbytes > 0) {
      std::memcpy(storage.data(), src, static_cast<std::size_t>(nbytes));
    }
    Buffer out(std::move(storage));
    out.elems_ = n;
    out.elem_bytes_ = static_cast<i64>(sizeof(T));
    return out;
  }
}

template <typename T>
Buffer Buffer::pack_zeros(i64 n) {
  static_assert(std::is_trivially_copyable_v<T>,
                "Buffer payloads are raw bytes");
  CAMB_CHECK(n >= 0);
  if constexpr (sizeof(T) == sizeof(double) && std::is_same_v<T, double>) {
    return zeros(static_cast<std::size_t>(n));
  } else {
    const i64 nbytes = n * static_cast<i64>(sizeof(T));
    Buffer out = zeros(static_cast<std::size_t>(ceil_div(nbytes, 8)));
    out.elems_ = n;
    out.elem_bytes_ = static_cast<i64>(sizeof(T));
    return out;
  }
}

}  // namespace camb
