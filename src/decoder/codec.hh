/**
 * @file
 * The mini H.264-style codec: a closed-loop encoder that produces a
 * CABAC bitstream from synthetic content, and the matching decoder.
 *
 * Syntax per macroblock: inter flag, partition mode (16x16 / 8x8 /
 * 4x4), per-partition MV deltas (UEG-binarized), per-4x4-block coded
 * flags, significance flags and levels. Prediction is quarter-pel MC
 * against the previous reconstructed frame (intra blocks predict flat
 * 128), residuals go through the standard forward transform +
 * quantization, and reconstruction + deblocking runs identically on
 * both sides, so encoder reconstruction and decoder output are
 * bit-identical.
 *
 * The decoder collects StageCounts - the per-stage work totals that
 * the Fig 10 profile estimate multiplies by simulated per-invocation
 * kernel costs (the same profiling-based estimation the paper uses).
 */

#ifndef UASIM_DECODER_CODEC_HH
#define UASIM_DECODER_CODEC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "h264/cabac.hh"
#include "video/frame.hh"
#include "video/motion.hh"
#include "video/sequence.hh"

namespace uasim::dec {

/// Highest quantization parameter: the quantization and deblocking
/// tables cover QP 0..maxQp, as in H.264.
constexpr int maxQp = 51;

/// Codec run configuration.
struct CodecConfig {
    video::SequenceParams seq;
    int qp = 28;  //!< 0..maxQp
    int frames = 3;
};

/**
 * Reject a configuration the codec cannot run. MiniEncoder and
 * MiniDecoder call this on construction.
 * @throws std::invalid_argument if qp is outside [0, maxQp].
 */
void validate(const CodecConfig &cfg);

/// One coded frame.
struct EncodedFrame {
    std::vector<std::uint8_t> bits;
    bool intraOnly = false;
    std::uint64_t bins = 0;  //!< CABAC bins in this frame
};

/// Adaptive context set shared by encoder and decoder.
struct ContextSet {
    h264::CabacContext mbInter;
    h264::CabacContext part[2];
    h264::CabacContext mvd[6];
    h264::CabacContext coded;
    h264::CabacContext sig[8];
    h264::CabacContext level[6];
};

/// Per-stage decoder work totals (the Fig 10 drivers).
struct StageCounts {
    /// Luma MC invocations: [size index 0=16,1=8,2=4][fy*4+fx].
    std::array<std::array<std::uint64_t, 16>, 3> lumaMc{};
    /// Chroma MC interpolations: [size index 0=8,1=4,2=2].
    std::array<std::uint64_t, 3> chromaMc{};
    std::uint64_t chromaCopy = 0;  //!< zero-fraction chroma blocks
    std::uint64_t idct4x4 = 0;
    std::uint64_t deblockMbs = 0;
    std::uint64_t cabacBins = 0;
    std::uint64_t videoOutBytes = 0;
    std::uint64_t mbs = 0;
    std::uint64_t frames = 0;

    StageCounts &operator+=(const StageCounts &o);
};

/**
 * Closed-loop encoder. Feed it frame indices in order; it renders the
 * synthetic source, encodes, and keeps its reconstruction as the next
 * reference.
 */
class MiniEncoder
{
  public:
    explicit MiniEncoder(const CodecConfig &cfg);
    ~MiniEncoder();

    /// Encode frame @p idx (must be called with 0, 1, 2, ...).
    EncodedFrame encodeFrame(int idx);

    /// Reconstructed (reference) frame after the last encode.
    const video::Frame &recon() const;

    /// Source frame used for the last encode (PSNR checks).
    const video::Frame &source() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The matching decoder. Functional (native-reference kernels); work
 * totals land in StageCounts for the profile model.
 */
class MiniDecoder
{
  public:
    explicit MiniDecoder(const CodecConfig &cfg);
    ~MiniDecoder();

    /// Decode the next frame in stream order.
    void decodeFrame(const EncodedFrame &frame, StageCounts &counts);

    /// Last decoded picture.
    const video::Frame &picture() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Mean PSNR (luma) between two frames, for codec sanity checks.
double lumaPsnr(const video::Frame &a, const video::Frame &b);

} // namespace uasim::dec

#endif // UASIM_DECODER_CODEC_HH
