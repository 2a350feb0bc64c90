// Stream-to-frame decoders for the reactor: bytes go in as they arrive
// off the socket, complete frames come out as string_views into the
// framer's internal buffer — zero copies between the recv buffer and the
// protocol parser.
//
// Two codecs share one interface:
//
//  * LineFramer — the service's existing newline-delimited text protocol.
//    Frames are lines with the trailing CR stripped and empty lines
//    skipped, and two size caps: a terminated line over the cap and an
//    unterminated tail over the cap both surface as kOversized (the
//    caller answers once and closes).
//  * LengthPrefixFramer — length-prefixed binary framing: a 4-byte
//    little-endian payload length followed by the payload.  A declared
//    length over the cap is rejected before any payload buffering.
//
// A returned frame view stays valid until the next append()/next_frame()
// call; the framer compacts its buffer only when no view is outstanding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace rnt::net {

enum class FrameStatus {
  kFrame,     ///< `frame` holds the next complete frame.
  kNeedMore,  ///< No complete frame buffered; feed more bytes.
  kOversized, ///< A frame (or unterminated tail) exceeds the cap.
};

enum class FramingMode { kLine, kLengthPrefix };

class Framer {
 public:
  virtual ~Framer() = default;

  /// Appends freshly received bytes.  Invalidates prior frame views.
  virtual void append(const char* data, std::size_t n) = 0;

  /// Pulls the next complete frame.  On kFrame, `frame` views into the
  /// internal buffer and stays valid until the next call.  kOversized is
  /// sticky: the stream is poisoned and the connection should close.
  virtual FrameStatus next_frame(std::string_view& frame) = 0;

  /// Bytes buffered but not yet consumed as frames.
  virtual std::size_t buffered_bytes() const = 0;
};

class LineFramer final : public Framer {
 public:
  explicit LineFramer(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void append(const char* data, std::size_t n) override;
  FrameStatus next_frame(std::string_view& frame) override;
  std::size_t buffered_bytes() const override {
    return buffer_.size() - start_;
  }

 private:
  void compact();

  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t start_ = 0;  ///< First unconsumed byte.
  bool poisoned_ = false;
};

class LengthPrefixFramer final : public Framer {
 public:
  static constexpr std::size_t kHeaderBytes = 4;

  explicit LengthPrefixFramer(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void append(const char* data, std::size_t n) override;
  FrameStatus next_frame(std::string_view& frame) override;
  std::size_t buffered_bytes() const override {
    return buffer_.size() - start_;
  }

 private:
  void compact();

  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t start_ = 0;
  bool poisoned_ = false;
};

/// Wire form of one length-prefixed frame (header + payload), the exact
/// inverse of LengthPrefixFramer.
std::string length_prefix_encode(std::string_view payload);

/// Builds the framer for `mode` with the given frame-size cap.
std::unique_ptr<Framer> make_framer(FramingMode mode,
                                    std::size_t max_frame_bytes);

}  // namespace rnt::net
