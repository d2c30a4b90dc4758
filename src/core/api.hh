/**
 * @file
 * Umbrella header: the public API of the uasim library.
 *
 * Include this to get everything a downstream user needs:
 *
 *  - trace layer (records, sinks, emitter, trace files)
 *  - Altivec emulation facade with the paper's lvxu/stvxu
 *  - realignment idioms and the Table I strategy set
 *  - memory hierarchy + superscalar timing model (Table II presets)
 *  - video substrate (frames, synthetic sequences, motion model)
 *  - H.264 kernels in all three variants + references
 *  - mini codec and the Fig 10 profile model
 *  - experiment runner and report formatting
 */

#ifndef UASIM_CORE_API_HH
#define UASIM_CORE_API_HH

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "decoder/codec.hh"
#include "decoder/profile.hh"
#include "decoder/transform.hh"
#include "h264/cabac.hh"
#include "h264/chroma_kernels.hh"
#include "h264/chroma_ref.hh"
#include "h264/deblock.hh"
#include "h264/idct_kernels.hh"
#include "h264/idct_ref.hh"
#include "h264/kernels.hh"
#include "h264/luma_kernels.hh"
#include "h264/luma_ref.hh"
#include "h264/sad_kernels.hh"
#include "h264/sad_ref.hh"
#include "h264/tables.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "timing/batched_pipeline.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "timing/results.hh"
#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "trace/instr.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"
#include "video/frame.hh"
#include "video/motion.hh"
#include "video/rng.hh"
#include "video/sequence.hh"
#include "vmx/buffer.hh"
#include "vmx/constpool.hh"
#include "vmx/realign.hh"
#include "vmx/scalarops.hh"
#include "vmx/strategies.hh"
#include "vmx/value.hh"
#include "vmx/vecops.hh"

#endif // UASIM_CORE_API_HH
