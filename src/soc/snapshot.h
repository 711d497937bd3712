/**
 * @file
 * Full-SoC snapshot/restore for snapshot-fork fault grading.
 *
 * A Snapshot freezes everything that determines forward execution of
 * the SoC at an instruction boundary: the hart's architectural state
 * (registers, pc, CSR file, mcycle/minstret), both memories, the
 * Failure Sentinels peripheral's latch state, the NVM write counters,
 * and the SoC-level cycle/power-cycle counters. Restoring it into any
 * Soc built from the same images resumes execution bit-identically to
 * the run the snapshot was taken from.
 *
 * Memory images are stored as copy-on-write pages (PagedImage): each
 * capture compares its pages against the previous snapshot in the
 * golden sequence and shares the unchanged ones, so the 10^3-10^4
 * snapshots a torture campaign keeps alive cost roughly one full
 * image plus the per-snapshot deltas (a commit window rewrites ~5
 * pages of a 512-page FRAM).
 */

#ifndef FS_SOC_SNAPSHOT_H_
#define FS_SOC_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "riscv/hart.h"
#include "soc/fs_peripheral.h"

namespace fs {
namespace soc {

/**
 * A byte image stored as fixed-size pages behind shared pointers.
 * capture() against a previous image shares every page whose bytes
 * are unchanged; only differing pages allocate. Sharing is detected
 * by comparison at capture time (not dirty bits), so direct data()
 * mutations -- image staging, tears -- can never be missed.
 *
 * Each page carries a content digest computed once, when the page is
 * created, so a shared page shares its digest. A live memory that
 * still matches an image outside a few pages ("dirty pages", found by
 * dirtyPages()) can then be hashed, compared and restored at a cost
 * proportional to those pages: the overloads taking @p dirty.
 */
class PagedImage
{
  public:
    static constexpr std::size_t kPageBytes = 256;

    /** One immutable page and its util::hashImage64 digest. */
    class Page
    {
      public:
        Page(const std::uint8_t *src, std::size_t len);

        const std::uint8_t *data() const { return bytes_.data(); }
        std::size_t size() const { return size_; }
        std::uint64_t digest() const { return digest_; }

      private:
        std::uint64_t digest_;
        std::uint32_t size_;
        std::array<std::uint8_t, kPageBytes> bytes_;
    };

    /** Snapshot @p mem, sharing unchanged pages with @p prev. */
    void capture(const std::vector<std::uint8_t> &mem,
                 const PagedImage *prev);

    /** Write the image back into @p mem (sizes must match). */
    void restore(std::vector<std::uint8_t> &mem) const;

    /**
     * restore() into a memory that holds @p held's image except on
     * the pages in @p dirty: copies only those pages and the pages
     * stored differently in @p held and this image.
     */
    void restore(std::vector<std::uint8_t> &mem, const PagedImage &held,
                 const std::vector<std::uint32_t> &dirty) const;

    /**
     * Byte-exact comparison against a memory that holds @p base's
     * image except on the pages in @p dirty: skips the clean pages
     * this image shares with @p base and byte-compares the rest.
     */
    bool equals(const std::vector<std::uint8_t> &mem,
                const PagedImage &base,
                const std::vector<std::uint32_t> &dirty) const;

    /**
     * Indices of the pages where @p mem differs from this image, in
     * ascending order, into @p dirty (one memcmp pass; sizes must
     * match).
     */
    void dirtyPages(const std::vector<std::uint8_t> &mem,
                    std::vector<std::uint32_t> &dirty) const;

    /** Content hash: the page digests folded in page order. */
    std::uint64_t hash() const;

    /**
     * hash() of a memory that holds this image except on the pages in
     * @p dirty: equal to capturing @p mem and hashing the capture, but
     * digests only the dirty pages.
     */
    std::uint64_t hash(const std::vector<std::uint8_t> &mem,
                       const std::vector<std::uint32_t> &dirty) const;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of pages NOT shared with @p prev (test observability). */
    std::size_t pagesOwnedVs(const PagedImage &prev) const;

    const std::vector<std::shared_ptr<const Page>> &pages() const
    {
        return pages_;
    }

  private:
    std::size_t size_ = 0;
    std::vector<std::shared_ptr<const Page>> pages_;
};

/** Everything needed to resume the SoC at an instruction boundary. */
struct Snapshot {
    riscv::Hart::ArchState hart;
    PagedImage fram;
    PagedImage sram;
    FsPeripheral::State peripheral;
    std::uint64_t framWrites = 0;       ///< Nvm write-op counter
    std::uint64_t framBytesWritten = 0; ///< Nvm byte counter
    std::uint64_t sramWrites = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t powerCycles = 0;
    bool appFinished = false;
    bool faultKilled = false;
};

/**
 * Bytes held by the distinct pages reachable from @p images (shared
 * pages counted once): the campaign's snapshot memory high-water.
 */
std::size_t distinctPageBytes(
    const std::vector<const PagedImage *> &images);

} // namespace soc
} // namespace fs

#endif // FS_SOC_SNAPSHOT_H_
