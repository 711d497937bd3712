#include "soc/snapshot.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/hash.h"
#include "util/logging.h"

namespace fs {
namespace soc {

PagedImage::Page::Page(const std::uint8_t *src, std::size_t len)
    : digest_(util::hashImage64(src, len)), size_(std::uint32_t(len)),
      bytes_{}
{
    FS_ASSERT(len <= kPageBytes, "page overflow");
    std::memcpy(bytes_.data(), src, len);
}

void
PagedImage::capture(const std::vector<std::uint8_t> &mem,
                    const PagedImage *prev)
{
    size_ = mem.size();
    const std::size_t n = (size_ + kPageBytes - 1) / kPageBytes;
    pages_.clear();
    pages_.reserve(n);
    const bool share = prev && prev->size_ == size_;
    for (std::size_t p = 0; p < n; ++p) {
        const std::size_t off = p * kPageBytes;
        const std::size_t len = std::min(kPageBytes, size_ - off);
        if (share) {
            const auto &old = prev->pages_[p];
            if (std::memcmp(old->data(), mem.data() + off, len) == 0) {
                pages_.push_back(old);
                continue;
            }
        }
        pages_.push_back(
            std::make_shared<const Page>(mem.data() + off, len));
    }
}

void
PagedImage::restore(std::vector<std::uint8_t> &mem) const
{
    FS_ASSERT(mem.size() == size_, "snapshot image size mismatch");
    for (std::size_t p = 0; p < pages_.size(); ++p)
        std::memcpy(mem.data() + p * kPageBytes, pages_[p]->data(),
                    pages_[p]->size());
}

void
PagedImage::restore(std::vector<std::uint8_t> &mem,
                    const PagedImage &held,
                    const std::vector<std::uint32_t> &dirty) const
{
    FS_ASSERT(mem.size() == size_ && held.size_ == size_,
              "snapshot image size mismatch");
    for (const std::uint32_t p : dirty)
        std::memcpy(mem.data() + p * kPageBytes, pages_[p]->data(),
                    pages_[p]->size());
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] != held.pages_[p])
            std::memcpy(mem.data() + p * kPageBytes, pages_[p]->data(),
                        pages_[p]->size());
    }
}

bool
PagedImage::equals(const std::vector<std::uint8_t> &mem,
                   const PagedImage &base,
                   const std::vector<std::uint32_t> &dirty) const
{
    if (mem.size() != size_ || base.size_ != size_)
        return false;
    auto next_dirty = dirty.begin();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const bool is_dirty = next_dirty != dirty.end() && *next_dirty == p;
        if (is_dirty)
            ++next_dirty;
        else if (pages_[p] == base.pages_[p])
            continue; // same bytes as base, which mem holds here
        if (std::memcmp(mem.data() + p * kPageBytes,
                        pages_[p]->data(), pages_[p]->size()) != 0)
            return false;
    }
    return true;
}

void
PagedImage::dirtyPages(const std::vector<std::uint8_t> &mem,
                       std::vector<std::uint32_t> &dirty) const
{
    FS_ASSERT(mem.size() == size_, "snapshot image size mismatch");
    dirty.clear();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (std::memcmp(mem.data() + p * kPageBytes, pages_[p]->data(),
                        pages_[p]->size()) != 0)
            dirty.push_back(std::uint32_t(p));
    }
}

std::uint64_t
PagedImage::hash() const
{
    std::uint64_t h = util::kFnvOffsetBasis;
    for (const auto &page : pages_)
        h = util::mixWord64(h, page->digest());
    return h;
}

std::uint64_t
PagedImage::hash(const std::vector<std::uint8_t> &mem,
                 const std::vector<std::uint32_t> &dirty) const
{
    FS_ASSERT(mem.size() == size_, "snapshot image size mismatch");
    std::uint64_t h = util::kFnvOffsetBasis;
    auto next_dirty = dirty.begin();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (next_dirty != dirty.end() && *next_dirty == p) {
            ++next_dirty;
            h = util::mixWord64(
                h, util::hashImage64(mem.data() + p * kPageBytes,
                                     pages_[p]->size()));
        } else {
            h = util::mixWord64(h, pages_[p]->digest());
        }
    }
    return h;
}

std::size_t
PagedImage::pagesOwnedVs(const PagedImage &prev) const
{
    std::size_t owned = 0;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (p >= prev.pages_.size() ||
            pages_[p].get() != prev.pages_[p].get())
            ++owned;
    }
    return owned;
}

std::size_t
distinctPageBytes(const std::vector<const PagedImage *> &images)
{
    std::unordered_set<const PagedImage::Page *> seen;
    std::size_t bytes = 0;
    for (const PagedImage *img : images) {
        if (!img)
            continue;
        for (const auto &page : img->pages()) {
            if (seen.insert(page.get()).second)
                bytes += page->size();
        }
    }
    return bytes;
}

} // namespace soc
} // namespace fs
