// Fixture decision cone: the scheduler's and the maintained order's
// entry points pull helpers defined OUTSIDE the decision dirs into the
// decision-purity scope. The helpers (and the one deliberately
// unreachable function) live in cone/helpers.hh.

#include "cone/helpers.hh"

class GreedyScheduler
{
  public:
    void allocate() { eqHelper(); }
};

class MaintainedOrder
{
  public:
    void refreshIndex()
    {
        iterHelper();
        toleratedHelper();
    }
    void refreshEntryIndexed() { chainHelper(); }
};
