#include "program/paged_image.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pp
{
namespace program
{

namespace
{

/** True when all @p n words at @p w are zero (no early exit: vectorizes). */
bool
allZero(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < n; ++i)
        any |= w[i];
    return any == 0;
}

} // namespace

PagedImage
PagedImage::zeros(std::size_t words)
{
    PagedImage img;
    img.words_ = words;
    img.pages_.resize(pagesFor(words));
    return img;
}

PagedImage
PagedImage::capture(const std::vector<std::uint64_t> &words,
                    const std::vector<PagePtr> &base,
                    const std::vector<std::uint8_t> &dirty)
{
    panicIfNot(base.size() == pagesFor(words.size()) &&
                   dirty.size() == base.size(),
               "paged image base has a different size");
    PagedImage img;
    img.words_ = words.size();
    img.pages_ = base;
    for (std::size_t p = 0; p < base.size(); ++p) {
        if (dirty[p] == 0)
            continue;
        const std::uint64_t *src = words.data() + p * kPageWords;
        const std::size_t n =
            std::min(kPageWords, words.size() - p * kPageWords);
        const PagePtr &old = base[p];
        if (old != nullptr && std::equal(src, src + n, old->begin()))
            continue; // unchanged: stays shared
        if (allZero(src, n)) {
            img.pages_[p] = nullptr;
        } else {
            auto page = std::make_shared<Page>();
            std::copy_n(src, n, page->begin());
            img.pages_[p] = std::move(page);
        }
    }
    return img;
}

std::vector<std::size_t>
PagedImage::diff(const PagedImage &base) const
{
    panicIfNot(base.words_ == words_,
               "paged image base has a different size");
    std::vector<std::size_t> out;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] == base.pages_[p])
            continue;
        const std::size_t first = p * kPageWords;
        const std::size_t end = std::min(words_, first + kPageWords);
        for (std::size_t i = first; i < end; ++i) {
            if ((*this)[i] != base[i])
                out.push_back(i);
        }
    }
    return out;
}

PagedImage::Builder::Builder(const PagedImage &base)
    : img_(base), own_(base.pages_.size())
{
}

void
PagedImage::Builder::set(std::size_t i, std::uint64_t value)
{
    const std::size_t p = i / kPageWords;
    if (own_[p] == nullptr) {
        if (img_[i] == value)
            return; // unchanged: the page stays shared
        const PagePtr &from = img_.pages_[p];
        own_[p] = from != nullptr ? std::make_shared<Page>(*from)
                                  : std::make_shared<Page>();
    }
    (*own_[p])[i % kPageWords] = value;
}

PagedImage
PagedImage::Builder::publish() &&
{
    for (std::size_t p = 0; p < own_.size(); ++p) {
        if (own_[p] == nullptr)
            continue;
        PagePtr &page = img_.pages_[p];
        if (allZero(own_[p]->data(), kPageWords))
            page = nullptr;
        else if (page == nullptr || *page != *own_[p])
            page = std::move(own_[p]);
    }
    return std::move(img_);
}

} // namespace program
} // namespace pp
