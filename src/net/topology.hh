/**
 * @file
 * 2-D mesh topology: node coordinates, port enumeration, and link maps.
 */

#ifndef NOC_NET_TOPOLOGY_HH
#define NOC_NET_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace noc
{

/** Router port directions in a 2-D mesh. */
enum class Port : std::uint8_t
{
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
};

/** Number of ports on a mesh router (including Local). */
constexpr std::size_t kNumPorts = 5;

/** Index form of a Port for array addressing. */
constexpr std::size_t portIndex(Port p) { return static_cast<std::size_t>(p); }

/** The opposite direction (Local maps to Local). */
Port oppositePort(Port p);

/** Human-readable port name. */
const char *portName(Port p);

/**
 * Lanes of a node, as observers index them: the router's ports take
 * lanes 0..kNumPorts-1 (port index) and the network interface the lane
 * after them.
 */
constexpr std::size_t kNiLane = kNumPorts;
/** Lanes per node: every router port plus the NI. */
constexpr std::size_t kNumLanes = kNumPorts + 1;

/** Index of @p node's lane @p lane in a node-major array of lanes. */
constexpr std::size_t
laneIndex(NodeId node, std::size_t lane)
{
    return static_cast<std::size_t>(node) * kNumLanes + lane;
}

/** Lane display name: the port name, or "NI". */
const char *laneName(std::size_t lane);

/**
 * An X-by-Y mesh of nodes numbered id = x + y * width, as in the paper
 * (8x8, node id = x + 8y).
 */
class Mesh2D
{
  public:
    Mesh2D(std::uint32_t width, std::uint32_t height);

    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }
    std::uint32_t numNodes() const { return width_ * height_; }

    std::uint32_t xOf(NodeId n) const { return n % width_; }
    std::uint32_t yOf(NodeId n) const { return n / width_; }
    NodeId nodeAt(std::uint32_t x, std::uint32_t y) const;

    /** Whether node @p n has a neighbour through port @p p. */
    bool hasNeighbor(NodeId n, Port p) const;

    /** The neighbour of @p n through port @p p. @pre hasNeighbor. */
    NodeId neighbor(NodeId n, Port p) const;

    /** Manhattan hop distance between two nodes. */
    std::uint32_t hopDistance(NodeId a, NodeId b) const;

    /** A node's nearest neighbour (east if possible, else west). */
    NodeId nearestNeighbor(NodeId n) const;

    /** Centre-most node (used by the Fig. 1 pathological pattern). */
    NodeId centerNode() const;

  private:
    std::uint32_t width_;
    std::uint32_t height_;
};

} // namespace noc

#endif // NOC_NET_TOPOLOGY_HH
