#include "apps/fio/fio.hh"

#include <cstring>
#include <numeric>

#include "sim/log.hh"

namespace tvarak {

FioWorkload::FioWorkload(MemorySystem &mem, DaxFs &fs, int tid,
                         RedundancyScheme *scheme, Params params)
    : mem_(mem), fs_(fs), tid_(tid), scheme_(scheme), params_(params)
{
    panic_if(params_.regionBytes % kPageBytes != 0,
             "fio region must be page aligned");
}

const char *
FioWorkload::patternName(Pattern p)
{
    switch (p) {
      case Pattern::SeqRead:   return "seq-read";
      case Pattern::SeqWrite:  return "seq-write";
      case Pattern::RandRead:  return "rand-read";
      case Pattern::RandWrite: return "rand-write";
    }
    return "?";
}

std::string
FioWorkload::name() const
{
    return std::string("fio-") + patternName(params_.pattern) + "-" +
        std::to_string(tid_);
}

void
FioWorkload::setup()
{
    std::size_t table = RawCoverage::tableBytes(params_.regionBytes);
    int fd = fs_.create("fio" + std::to_string(tid_),
                        params_.regionBytes + table);
    base_ = fs_.daxMap(fd);
    lines_ = params_.regionBytes / kLineBytes;
    // A multiplier coprime with the line count scatters accesses.
    permStride_ = 0;
    if (params_.pattern == Pattern::RandRead ||
        params_.pattern == Pattern::RandWrite) {
        permStride_ = lines_ / 2 + 73;
        while (std::gcd(permStride_, lines_) != 1)
            permStride_++;
    }
    coverage_ = std::make_unique<RawCoverage>(
        mem_, scheme_, base_, params_.regionBytes,
        base_ + params_.regionBytes);

    // Read workloads need non-trivial resident data, written at rest
    // a page at a time.
    if (params_.pattern == Pattern::SeqRead ||
        params_.pattern == Pattern::RandRead) {
        std::uint8_t page[kPageBytes];
        for (std::size_t p = 0; p < params_.regionBytes / kPageBytes;
             p++) {
            for (std::size_t l = 0; l < kLinesPerPage; l++) {
                std::memset(page + l * kLineBytes,
                            static_cast<int>((p * kLinesPerPage + l) &
                                             0xff),
                            kLineBytes);
            }
            fs_.initialize(fd, p * kPageBytes, page, kPageBytes);
        }
    }
}

Addr
FioWorkload::lineAt(std::size_t i) const
{
    std::size_t idx = permStride_ != 0
        ? (i * permStride_) % lines_
        : i;
    return base_ + idx * kLineBytes;
}

bool
FioWorkload::step()
{
    bool is_write = params_.pattern == Pattern::SeqWrite ||
        params_.pattern == Pattern::RandWrite;
    std::uint8_t buf[kLineBytes];
    std::size_t end = std::min(next_ + params_.sliceLines, lines_);
    for (; next_ < end; next_++) {
        Addr a = lineAt(next_);
        if (is_write) {
            std::memset(buf, static_cast<int>(next_ & 0xff),
                        sizeof(buf));
            mem_.write(tid_, a, buf, kLineBytes);
            coverage_->onWrite(tid_, a, kLineBytes);
        } else {
            mem_.read(tid_, a, buf, kLineBytes);
        }
    }
    return next_ < lines_;
}

}  // namespace tvarak
