/**
 * @file
 * Unit tests for the runtime debug-trace categories.
 */

#include <gtest/gtest.h>

#include "sim/debug.hh"

namespace noc
{
namespace
{

using debug::Category;

TEST(Debug, AllCategoriesHaveNames)
{
    const auto n = static_cast<unsigned>(Category::NumCategories);
    for (unsigned i = 0; i < n; ++i) {
        const char *name =
            debug::categoryName(static_cast<Category>(i));
        EXPECT_STRNE(name, "?");
    }
}

TEST(Debug, ConfigureSingleCategory)
{
    debug::configure("sched");
    EXPECT_TRUE(debug::enabled(Category::Sched));
    EXPECT_FALSE(debug::enabled(Category::Reset));
    debug::configure("");
}

TEST(Debug, ConfigureList)
{
    debug::configure("reset,la,data");
    EXPECT_TRUE(debug::enabled(Category::Reset));
    EXPECT_TRUE(debug::enabled(Category::La));
    EXPECT_TRUE(debug::enabled(Category::Data));
    EXPECT_FALSE(debug::enabled(Category::Sched));
    debug::configure("");
}

TEST(Debug, ConfigureAll)
{
    debug::configure("all");
    const auto n = static_cast<unsigned>(Category::NumCategories);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_TRUE(debug::enabled(static_cast<Category>(i)));
    debug::configure("");
}

TEST(Debug, EmptyDisablesEverything)
{
    debug::configure("all");
    debug::configure("");
    EXPECT_FALSE(debug::enabled(Category::Sched));
    EXPECT_FALSE(debug::enabled(Category::Gsf));
}

TEST(Debug, UnknownCategoryIsTolerated)
{
    debug::configure("sched,bogus");
    EXPECT_TRUE(debug::enabled(Category::Sched));
    debug::configure("");
}

} // namespace
} // namespace noc
