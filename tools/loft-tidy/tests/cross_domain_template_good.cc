// Known-good fixture for loft-cross-domain-channel: the templated base.
//
// The same shared consumer as cross_domain_template_bad.cc, reached
// through `class X final : public DomainLog<R>`, but the clocked
// component's handle is annotated as the deferred endpoint it is.
//
// Expected: the check stays silent.

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

class GoodSink final : public Clocked
{
  public:
    void tick(Cycle now) override {}

  private:
    // loft-tidy: deferred-endpoint(Collector::mergeDomains)
    Collector *collector_ = nullptr;
};
