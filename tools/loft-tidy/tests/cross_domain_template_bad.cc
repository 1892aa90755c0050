// Known-bad fixture for loft-cross-domain-channel: the templated base.
//
// Shared consumers reach the barrier-merged base through a class
// template (`class X final : public DomainLog<R>`), so the check must
// follow the closure through the template's base clause. A clocked
// component holding an unannotated handle to such a consumer writes
// it from the partitioned phase without going through the barrier.
//
// Expected: the check fires on the member declaration.

using Cycle = unsigned long long;

class Clocked
{
  public:
    virtual ~Clocked() = default;
    virtual void tick(Cycle now) = 0;
};

class DomainMerged
{
  public:
    virtual ~DomainMerged() = default;
    virtual void mergeDomains() = 0;
};

template <typename Record>
class DomainLog : public DomainMerged
{
  public:
    void mergeDomains() override {}
};

struct Sample
{
    unsigned flow = 0;
};

class Collector final : public DomainLog<Sample>
{
  public:
    void onFlitEjected(unsigned flow) { ++flits_; }

  private:
    unsigned long long flits_ = 0;
};

class BadSink final : public Clocked
{
  public:
    void tick(Cycle now) override {}

  private:
    Collector *collector_ = nullptr;
};
