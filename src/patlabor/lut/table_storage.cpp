#include "patlabor/lut/table_storage.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace patlabor::lut {

const IndexEntry* SectionView::find(std::uint64_t code) const {
  const auto it = std::lower_bound(
      index.begin(), index.end(), code,
      [](const IndexEntry& e, std::uint64_t c) { return e.code < c; });
  if (it == index.end() || it->code != code) return nullptr;
  return &*it;
}

RecordCursor::RecordCursor(const SectionView& view, const IndexEntry& entry,
                           int degree, const std::string& context)
    : degree_(degree), context_(&context) {
  // The whole entry span must sit inside the blob before any record is
  // decoded — offset and nbytes come from the file and may lie.
  if (entry.offset > view.blob.size() ||
      entry.nbytes > view.blob.size() - entry.offset)
    throw FormatError(
        *context_ + ": index entry for code " + std::to_string(entry.code) +
        " spans [" + std::to_string(entry.offset) + ", " +
        std::to_string(entry.offset + entry.nbytes) + ") outside the " +
        std::to_string(view.blob.size()) + "-byte topology blob");
  p_ = view.blob.data() + entry.offset;
  end_ = p_ + entry.nbytes;
  remaining_ = entry.count;
}

bool RecordCursor::next() {
  if (remaining_ == 0) {
    if (p_ != end_)
      throw FormatError(*context_ +
                        ": topology records overrun their entry (" +
                        std::to_string(end_ - p_) + " trailing bytes)");
    return false;
  }
  if (p_ >= end_)
    throw FormatError(
        *context_ + ": entry promises " + std::to_string(remaining_) +
        " more topology record(s) but its byte span is exhausted");
  nedges_ = *p_++;
  if (nedges_ > max_record_edges(degree_))
    throw FormatError(*context_ + ": topology record claims " +
                      std::to_string(nedges_) + " edges, more than the " +
                      std::to_string(max_record_edges(degree_)) +
                      " a degree-" + std::to_string(degree_) +
                      " topology can hold");
  if (static_cast<std::size_t>(end_ - p_) < 2u * nedges_)
    throw FormatError(
        *context_ + ": topology record claims " + std::to_string(nedges_) +
        " edges but only " + std::to_string((end_ - p_) / 2) +
        " fit in the remaining bytes");
  for (unsigned i = 0; i < 2u * nedges_; ++i) {
    const RankPoint r = unpack_rank_point(p_[i]);
    if (r.x >= degree_ || r.y >= degree_)
      throw FormatError(*context_ + ": topology record has rank point (" +
                        std::to_string(r.x) + "," + std::to_string(r.y) +
                        ") outside the degree-" + std::to_string(degree_) +
                        " rank grid");
  }
  edges_ = p_;
  p_ += 2u * nedges_;
  --remaining_;
  return true;
}

std::uint64_t TableBuilder::add(std::uint64_t code,
                                std::span<const RankTopology> topos) {
  IndexEntry e;
  e.code = code;
  e.offset = blob_.size();
  e.count = static_cast<std::uint32_t>(topos.size());
  for (const RankTopology& t : topos) {
    blob_.push_back(static_cast<std::uint8_t>(t.edges.size()));
    for (const auto& [a, b] : t.edges) {
      blob_.push_back(pack_rank_point(a));
      blob_.push_back(pack_rank_point(b));
    }
  }
  e.nbytes = static_cast<std::uint32_t>(blob_.size() - e.offset);
  entries_.push_back(e);
  codes_.insert(code);
  return e.nbytes;
}

void TableBuilder::restore(std::vector<IndexEntry> index,
                           std::vector<std::uint8_t> blob) {
  entries_ = std::move(index);
  blob_ = std::move(blob);
  codes_.clear();
  codes_.reserve(entries_.size());
  for (const IndexEntry& e : entries_) codes_.insert(e.code);
}

OwnedSection TableBuilder::freeze() {
  OwnedSection out;
  out.index = std::move(entries_);
  out.blob = std::move(blob_);
  std::sort(out.index.begin(), out.index.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.code < b.code;
            });
  entries_.clear();
  blob_.clear();
  codes_.clear();
  return out;
}

MmapFile::MmapFile(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw FormatError("cannot open " + path + ": " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw FormatError("cannot stat " + path + ": " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    throw FormatError(path + " is empty (0 bytes), not a lookup table");
  }
  // Read-only + private: never written, so every process mapping the file
  // shares the same physical page-cache pages.
  addr_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);
  if (addr_ == MAP_FAILED) {
    addr_ = nullptr;
    throw FormatError("cannot mmap " + path + ": " + std::strerror(err));
  }
}

MmapFile::~MmapFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

std::uint64_t MmapFile::resident_bytes() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0 || addr_ == nullptr) return 0;
  const std::size_t pages =
      (size_ + static_cast<std::size_t>(page) - 1) /
      static_cast<std::size_t>(page);
  std::vector<unsigned char> vec(pages);
  if (::mincore(addr_, size_, vec.data()) != 0) return 0;
  std::uint64_t resident = 0;
  for (std::size_t i = 0; i < pages; ++i)
    if (vec[i] & 1) ++resident;
  return resident * static_cast<std::uint64_t>(page);
}

}  // namespace patlabor::lut
