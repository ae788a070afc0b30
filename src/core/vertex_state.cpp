#include "core/vertex_state.hpp"

#include <algorithm>

namespace graphsd::core {

VertexState::VertexState(VertexId num_vertices,
                         std::uint32_t num_program_arrays, bool gather,
                         std::uint32_t contrib_width)
    : num_vertices_(num_vertices), contrib_width_(contrib_width) {
  GRAPHSD_CHECK(num_program_arrays >= 1);
  GRAPHSD_CHECK(contrib_width >= 1);
  program_arrays_.reserve(num_program_arrays);
  for (std::uint32_t a = 0; a < num_program_arrays; ++a) {
    program_arrays_.emplace_back(std::size_t{num_vertices} * sizeof(Slot));
    std::fill(array(a).begin(), array(a).end(), Slot{0});
  }
  for (int s = 0; s < 2; ++s) {
    contrib_storage_[s].assign(
        static_cast<std::size_t>(num_vertices) * contrib_width, 0);
    contrib_[s] = contrib_storage_[s];
  }
  if (gather) {
    for (int s = 0; s < 2; ++s) {
      accum_storage_[s].assign(num_vertices, 0);
      accum_[s] = accum_storage_[s];
    }
  }
}

Status VertexState::Persist(io::Device& device, const std::string& path) const {
  GRAPHSD_ASSIGN_OR_RETURN(io::DeviceFile file,
                           device.Open(path, io::OpenMode::kWrite));
  std::uint64_t offset = 0;
  for (const AlignedBuffer& a : program_arrays_) {
    GRAPHSD_RETURN_IF_ERROR(file.WriteAt(offset, a.span()));
    offset += a.size();
  }
  return Status::Ok();
}

Status VertexState::Load(io::Device& device, const std::string& path) {
  GRAPHSD_ASSIGN_OR_RETURN(io::DeviceFile file,
                           device.Open(path, io::OpenMode::kRead));
  std::uint64_t offset = 0;
  for (AlignedBuffer& a : program_arrays_) {
    GRAPHSD_RETURN_IF_ERROR(
        file.ReadPadded(offset, a.size(), {a.data(), a.capacity()}));
    offset += a.size();
  }
  return Status::Ok();
}

}  // namespace graphsd::core
