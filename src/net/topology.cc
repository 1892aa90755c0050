#include "net/topology.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace noc
{

Port
oppositePort(Port p)
{
    switch (p) {
      case Port::Local: return Port::Local;
      case Port::North: return Port::South;
      case Port::East: return Port::West;
      case Port::South: return Port::North;
      case Port::West: return Port::East;
    }
    panic("oppositePort: bad port %d", static_cast<int>(p));
}

const char *
portName(Port p)
{
    switch (p) {
      case Port::Local: return "Local";
      case Port::North: return "North";
      case Port::East: return "East";
      case Port::South: return "South";
      case Port::West: return "West";
    }
    return "?";
}

const char *
laneName(std::size_t lane)
{
    if (lane < kNumPorts)
        return portName(static_cast<Port>(lane));
    return "NI";
}

Mesh2D::Mesh2D(std::uint32_t width, std::uint32_t height)
    : width_(width), height_(height)
{
    if (width == 0 || height == 0)
        fatal("Mesh2D dimensions must be positive (got %ux%u)",
              width, height);
}

NodeId
Mesh2D::nodeAt(std::uint32_t x, std::uint32_t y) const
{
    if (x >= width_ || y >= height_)
        panic("Mesh2D::nodeAt out of range (%u, %u)", x, y);
    return x + y * width_;
}

bool
Mesh2D::hasNeighbor(NodeId n, Port p) const
{
    const std::uint32_t x = xOf(n);
    const std::uint32_t y = yOf(n);
    switch (p) {
      case Port::Local: return false;
      case Port::North: return y + 1 < height_;
      case Port::East: return x + 1 < width_;
      case Port::South: return y > 0;
      case Port::West: return x > 0;
    }
    return false;
}

NodeId
Mesh2D::neighbor(NodeId n, Port p) const
{
    if (!hasNeighbor(n, p))
        panic("Mesh2D::neighbor: node %u has no %s neighbour",
              n, portName(p));
    switch (p) {
      case Port::North: return n + width_;
      case Port::East: return n + 1;
      case Port::South: return n - width_;
      case Port::West: return n - 1;
      default: break;
    }
    panic("Mesh2D::neighbor: bad port");
}

std::uint32_t
Mesh2D::hopDistance(NodeId a, NodeId b) const
{
    const auto dx = static_cast<std::int64_t>(xOf(a)) -
                    static_cast<std::int64_t>(xOf(b));
    const auto dy = static_cast<std::int64_t>(yOf(a)) -
                    static_cast<std::int64_t>(yOf(b));
    return static_cast<std::uint32_t>(std::llabs(dx) + std::llabs(dy));
}

NodeId
Mesh2D::nearestNeighbor(NodeId n) const
{
    if (hasNeighbor(n, Port::East))
        return neighbor(n, Port::East);
    if (hasNeighbor(n, Port::West))
        return neighbor(n, Port::West);
    if (hasNeighbor(n, Port::North))
        return neighbor(n, Port::North);
    return neighbor(n, Port::South);
}

NodeId
Mesh2D::centerNode() const
{
    return nodeAt(width_ / 2, height_ / 2);
}

} // namespace noc
