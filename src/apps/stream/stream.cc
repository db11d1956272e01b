#include "apps/stream/stream.hh"

#include <cstring>

#include "sim/log.hh"

namespace tvarak {

namespace {

/** Per-line FLOP-cost model (8 doubles per line): copy moves bytes,
 *  scale multiplies, add adds, triad does a fused multiply-add. The
 *  growing compute cost is why relative overheads shrink from copy to
 *  triad in the paper. */
Cycles
kernelComputeCycles(StreamWorkload::Kernel k)
{
    switch (k) {
      case StreamWorkload::Kernel::Copy:  return 1;
      case StreamWorkload::Kernel::Scale: return 8;
      case StreamWorkload::Kernel::Add:   return 10;
      case StreamWorkload::Kernel::Triad: return 16;
    }
    return 1;
}

}  // namespace

StreamWorkload::StreamWorkload(MemorySystem &mem, DaxFs &fs, int tid,
                               RedundancyScheme *scheme, Params params)
    : mem_(mem), fs_(fs), tid_(tid), scheme_(scheme), params_(params)
{
    panic_if(params_.chunkBytes % kPageBytes != 0,
             "stream chunk must be page aligned");
}

const char *
StreamWorkload::kernelName(Kernel k)
{
    switch (k) {
      case Kernel::Copy:  return "copy";
      case Kernel::Scale: return "scale";
      case Kernel::Add:   return "add";
      case Kernel::Triad: return "triad";
    }
    return "?";
}

std::string
StreamWorkload::name() const
{
    return std::string("stream-") + kernelName(params_.kernel) + "-" +
        std::to_string(tid_);
}

void
StreamWorkload::setup()
{
    std::size_t data = 3 * params_.chunkBytes;
    std::size_t table = RawCoverage::tableBytes(data);
    int fd = fs_.create("stream" + std::to_string(tid_), data + table);
    Addr base = fs_.daxMap(fd);
    a_ = base;
    b_ = base + params_.chunkBytes;
    c_ = base + 2 * params_.chunkBytes;
    lines_ = params_.chunkBytes / kLineBytes;
    coverage_ = std::make_unique<RawCoverage>(mem_, scheme_, base, data,
                                              base + data);

    // Initialize the input arrays with real doubles, at rest and a
    // page at a time (one page of staging, not whole arrays). Then
    // inform the interposing library of every line in the order the
    // lines were written: the TxB schemes must cover every write that
    // goes through them, including initialization, and their commits
    // stay timed set-up work.
    constexpr std::size_t kPerPage = kPageBytes / sizeof(double);
    double vals[kPerPage];
    for (std::size_t p = 0; p < params_.chunkBytes / kPageBytes; p++) {
        for (std::size_t i = 0; i < kPerPage; i++)
            vals[i] = static_cast<double>(p * kPerPage + i);
        fs_.initialize(fd, p * kPageBytes, vals, kPageBytes);
        for (std::size_t i = 0; i < kPerPage; i++)
            vals[i] = 2.0 * static_cast<double>(p * kPerPage + i);
        fs_.initialize(fd, params_.chunkBytes + p * kPageBytes, vals,
                       kPageBytes);
    }
    for (std::size_t l = 0; l < lines_; l++) {
        coverage_->onWrite(tid_, a_ + l * kLineBytes, kLineBytes);
        coverage_->onWrite(tid_, b_ + l * kLineBytes, kLineBytes);
    }
}

bool
StreamWorkload::step()
{
    constexpr double kScalar = 3.0;
    double in1[8], in2[8], out[8];
    std::size_t end = std::min(next_ + params_.sliceLines, lines_);
    Cycles flops = kernelComputeCycles(params_.kernel);

    for (; next_ < end; next_++) {
        Addr off = next_ * kLineBytes;
        switch (params_.kernel) {
          case Kernel::Copy:
            mem_.read(tid_, a_ + off, out, sizeof(out));
            break;
          case Kernel::Scale:
            mem_.read(tid_, a_ + off, in1, sizeof(in1));
            for (int i = 0; i < 8; i++)
                out[i] = kScalar * in1[i];
            break;
          case Kernel::Add:
            mem_.read(tid_, a_ + off, in1, sizeof(in1));
            mem_.read(tid_, b_ + off, in2, sizeof(in2));
            for (int i = 0; i < 8; i++)
                out[i] = in1[i] + in2[i];
            break;
          case Kernel::Triad:
            mem_.read(tid_, a_ + off, in1, sizeof(in1));
            mem_.read(tid_, b_ + off, in2, sizeof(in2));
            for (int i = 0; i < 8; i++)
                out[i] = in2[i] + kScalar * in1[i];
            break;
        }
        mem_.compute(tid_, flops);
        Addr dst = (params_.kernel == Kernel::Scale ? b_ : c_) + off;
        mem_.write(tid_, dst, out, sizeof(out));
        coverage_->onWrite(tid_, dst, kLineBytes);
    }
    return next_ < lines_;
}

}  // namespace tvarak
