/**
 * @file
 * Immutable paged image of an emulator data segment.
 *
 * A window checkpoint (sampling/window_checkpoint.hh) holds the data
 * segment as it stood at the window's warm start. The windows of one
 * functional pass differ only in the pages the gaps between them stored
 * to, so a PagedImage splits the segment into fixed 4 KiB pages held
 * through shared pointers to const. An image captured against its
 * predecessor shares every page whose contents did not change, and a
 * null page stands for a page of zeros, so a set's memory scales with
 * the distinct pages its windows hold rather than with windows ×
 * segment size (the live-point idea of TurboSMARTS).
 *
 * A page is never written once an image holds it: capture() and
 * Builder::publish() finish each page before handing it over. Images
 * can therefore be read from any number of threads. Reading a page
 * bumps no reference count, but an emulator that restores or captures
 * an image holds references to its pages (program/emulator.hh), so
 * pages are also referenced from threads that never built them.
 */

#ifndef PP_PROGRAM_PAGED_IMAGE_HH
#define PP_PROGRAM_PAGED_IMAGE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pp
{
namespace program
{

/** A data segment as immutable, shareable 4 KiB pages. */
class PagedImage
{
  public:
    /** Words per page: 4 KiB of 8-byte words. */
    static constexpr std::size_t kPageWords = 512;

    using Page = std::array<std::uint64_t, kPageWords>;

    /** A shared page; null is a page of zeros. */
    using PagePtr = std::shared_ptr<const Page>;

    class Builder;

    /** Pages an image of @p words words spans. */
    static std::size_t
    pagesFor(std::size_t words)
    {
        return (words + kPageWords - 1) / kPageWords;
    }

    /** An image of @p words zeros: every page null. */
    static PagedImage zeros(std::size_t words);

    /**
     * Image of @p words that reads only the pages @p dirty marks (one
     * byte per page). Every other page is @p base's page, which
     * @p words must equal there. A dirty page equal to base's stays
     * shared, an all-zero one becomes null, and any other is copied.
     */
    static PagedImage capture(const std::vector<std::uint64_t> &words,
                              const std::vector<PagePtr> &base,
                              const std::vector<std::uint8_t> &dirty);

    /** Size in 8-byte words. */
    std::size_t size() const { return words_; }

    /** Word @p i (i < size()). */
    std::uint64_t
    operator[](std::size_t i) const
    {
        const PagePtr &p = pages_[i / kPageWords];
        return p ? (*p)[i % kPageWords] : 0;
    }

    /**
     * The pages in address order. The last one is partial when size()
     * is not a multiple of kPageWords; its unused words are zero.
     */
    const std::vector<PagePtr> &pages() const { return pages_; }

    /**
     * Ascending indices of the words that differ from @p base, an image
     * of the same size. Pages the two images share are not read.
     */
    std::vector<std::size_t> diff(const PagedImage &base) const;

  private:
    std::size_t words_ = 0;
    std::vector<PagePtr> pages_;
};

/**
 * Copy-on-write editor: the first set() that changes a page writes a
 * private copy of it, and publish() hands the private pages over as
 * shared ones. The pages of the image it started from are never
 * written.
 */
class PagedImage::Builder
{
  public:
    /** Start from @p base's contents. */
    explicit Builder(const PagedImage &base);

    /** Set word @p i (below the image size) to @p value. */
    void set(std::size_t i, std::uint64_t value);

    /**
     * The finished image. A page that ended up all zeros becomes null,
     * and one equal to the starting image's page stays that page.
     */
    PagedImage publish() &&;

  private:
    PagedImage img_;
    std::vector<std::shared_ptr<Page>> own_; ///< private copies by page
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_PAGED_IMAGE_HH
