#include "stream/event.hpp"


#include "common/hash.hpp"
#include "storage/format.hpp"

namespace everest::stream {

void WindowOutput::encode(std::string& out) const {
  storage::put_u32(out, static_cast<std::uint32_t>(topic.size()));
  out.append(topic);
  storage::put_u32(out, static_cast<std::uint32_t>(op.size()));
  out.append(op);
  storage::put_u64(out, key);
  storage::put_u64(out, window_start_us);
  storage::put_u64(out, window_end_us);
  storage::put_u64(out, events);
  storage::put_f64(out, value);
}

bool operator==(const WindowOutput& a, const WindowOutput& b) {
  return a.topic == b.topic && a.op == b.op && a.key == b.key &&
         a.window_start_us == b.window_start_us &&
         a.window_end_us == b.window_end_us && a.events == b.events &&
         a.value == b.value;
}

std::uint64_t fingerprint(const std::vector<WindowOutput>& outputs) {
  std::string bytes;
  bytes.reserve(outputs.size() * 64);
  for (const WindowOutput& output : outputs) output.encode(bytes);
  return fnv1a(bytes);
}

}  // namespace everest::stream
