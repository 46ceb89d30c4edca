#include "common/file_util.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace subrec {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open for read: " + path);
  }
  // One sized read straight into the result, no stream buffer copy. Only
  // regular files have a size; anything else (a directory, a pipe) is an
  // error rather than a guess.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::Internal("cannot size " + path + ": " + error.message());
  }
  std::string out(static_cast<size_t>(size), '\0');
  in.read(out.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    return Status::Internal("read failed: " + path);
  }
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open for write: " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace subrec
